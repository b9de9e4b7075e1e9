#!/usr/bin/env python3
"""Watch one RX buffer's whole life through the flight recorder.

The paper's vulnerabilities are all *timelines*: a page is allocated,
mapped, written by the device, unmapped -- and then (deferred mode)
stays device-writable until the next flush-queue drain. ``repro.trace``
records every one of those steps as a typed event stamped from the
simulated clock, so the deferred-invalidation window of Figure 6 can
be read straight off the event stream instead of probed for.

This example traces a short echo workload, prints the tail of the
timeline, and recomputes the invalidation window from the
``iommu/fq_defer`` / ``fq_drain`` event pairs.

Run:  python examples/trace_timeline.py
"""

from repro import trace
from repro.net.proto import PROTO_UDP, make_packet
from repro.net.stack import ECHO_PORT
from repro.report import render_timeline, render_trace_summary
from repro.report.timeline import render_invalidation_report
from repro.sim.kernel import Kernel


def run_echo(kernel, nic, nr_packets=40):
    for i in range(nr_packets):
        packet = make_packet(dst_ip=0x0A00_0001, proto=PROTO_UDP,
                             dst_port=ECHO_PORT, flow_id=i,
                             payload=b"load-%04d" % i)
        if not nic.device_receive(packet):
            break
        nic.napi_poll()
        kernel.stack.process_backlog()
        nic.device_fetch_tx()
        nic.tx_clean()
        kernel.advance_time_us(400.0)
    # cross a full 10 ms flush period so the queued invalidations
    # drain and every window in the trace is closed
    kernel.advance_time_ms(11.0)


def main():
    with trace.session(categories=("dma", "iommu", "net")) as recorder:
        kernel = Kernel(seed=42, phys_mb=256, iommu_mode="deferred",
                        boot_jitter_pages=0, boot_jitter_blocks=0)
        nic = kernel.add_nic("eth0")
        run_echo(kernel, nic)

    print("last 25 events of the recording:")
    print(render_timeline(recorder.events, last=25))
    print()
    print(render_trace_summary(trace.summary_record(recorder)))
    # the recorder keeps events only; counts come from the kernel's
    # stats structs, which `repro-dma metrics` exports
    maps = trace.event_counts(recorder.events)[("dma", "map")]
    print(f"dma maps: {kernel.dma.registry.nr_added} counted by the "
          f"DMA API, {maps} map events in the ring")

    windows = trace.derive_invalidation_windows(recorder.events)
    print(render_invalidation_report(windows))
    print()
    print(f"Figure 6, recomputed from the trace: an unmapped RX "
          f"buffer stayed device-accessible for up to "
          f"{windows.max_ms:.1f} ms.")
    assert windows.nr_windows >= 1
    assert windows.nr_unpaired == 0


if __name__ == "__main__":
    main()
