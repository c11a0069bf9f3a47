// Command perfbench is the repository benchmark. It drives the AN2
// reproduction through its public packages with seeded inputs, reports
// end-to-end and per-layer metrics, and checks the program's outputs.
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload switch|fabric|service|recover --seed N --seconds S --trace 0|1
//
// which builds the binary under $CARGO_TARGET_DIR (default .bench_build)
// and writes the traced run's spans there. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics: with --trace 0 the end-to-end metrics, with --trace 1 the
// per-layer metrics. The lines before it print the same figures under the
// names used below, each marked host or simulated time.
//
// # Workloads
//
// Every input is generated from --seed; the program sees only the
// generated inputs. Each workload fixes its layout (topology, circuits,
// hot outputs, fault targets) and draws its arrivals and fault times from
// the seed, so seeds vary the traffic without changing what is measured.
//
//   - switch: one 16×16 switch with per-VC buffers and PIM-3, bursty
//     best-effort arrivals with four hot outputs at about 0.9 load over
//     2,048 VCs, plus 16 reserved guaranteed pairs. Host time goes to
//     buffer, sched/pim and switchnode only.
//   - fabric: a radix-8, 4-pod fat-tree (48 switches, 64 hosts) built from
//     simnet, routing and bwcentral with core's default engine settings;
//     on/off best-effort and rate-paced guaranteed circuits, pod 3 idle.
//     Adds simnet stepping, links, credits and idle-switch cost.
//   - service: svc.Server on E32's LAN (4×4 torus, 48 hosts, 128-slot
//     frames) over loopback UDP, not a real link, with two tenant sessions
//     in one process. Open-loop flows (80% best-effort, 20% guaranteed at
//     rate 1, every 4th admitted flow pushes 8 cells) at 4,000 flows/s,
//     then a bisection over a ladder of rates.
//   - recover: a 4×4 torus under steady traffic with a seeded schedule of
//     two link cuts and heals and a switch crash and reboot, driven through
//     recovery.Injector and a recovery.Loop on its default configuration.
//
// # End-to-end metrics (tracing off)
//
// Every workload reports the same four metrics, because each run must
// report every end-to-end metric; each reads the workload's own headline
// quantity. All four are host time or host memory.
//
//	metric            switch / fabric / recover            service
//	setup_s           build + circuit setup (median)       LAN boot + server + hello (median of 3)
//	peak_heap_mb      live heap at forced-GC checkpoints    same
//	host_rate_per_s   simulated slots per host second       answered opens per process CPU second
//	host_latency_us   host µs per simulated slot            open latency from due time, p50
//
// Host figures are medians: over the run's repetitions of the same
// simulation (the slot latency is the inverse of the median rate), and
// for the service over the half-second windows of the fixed-rate phase.
// The host is shared and its speed drifts: a fixed CPU loop timed in 20 s
// windows spreads by 15% (quartile distance over median), which bounds how
// steady any host-time figure of a 20 s run can be.
//
// The workload-specific figures are printed on the lines before the JSON:
// slots_per_s, slot_p50_us, slot_p99_us, setup_p50_us, setup_p99_us,
// flows_per_cpu_s and capacity_fps (host time), and sim_throughput,
// sim_p99_lat_slots and sim_outage_slots (simulated slots, identical for
// every run of a seed on switch and fabric).
//
// # Per-layer metrics (traced run) and what they should move
//
//	workload  per-layer metric                          moves
//	switch    buffer.enqueue_ns, sched.schedule_ns,      slots_per_s
//	          switchnode.step_ns, switchnode.step_self_ns,
//	          switchnode.allocs_per_slot, sched.iters_per_slot
//	switch    switchnode.bytes_per_slot                  slots_per_s, peak_heap_mb
//	switch    sched.match_ratio, buffer.drop_frac        sim_throughput
//	switch    buffer.occupancy_cells                     sim_p99_lat_slots
//	fabric    simnet.step_ns, simnet.send_ns,            slots_per_s
//	          simnet.allocs_per_slot
//	fabric    simnet.send_refused_frac,                  sim_throughput
//	          simnet.delivered_per_slot
//	fabric    simnet.buffered_cells, simnet.inflight_cells  sim_p99_lat_slots
//	fabric    simnet.open_ns, routing.shortest_legal_ns  setup_s
//	service   ctrlnet.send_ns, ctrlnet.batch_size,       capacity_fps, flows_per_cpu_s
//	          svc.handle_ns_per_msg, svc.busy_frac,
//	          svc.shed_frac, svc.allocs_per_flow
//	service   svc.tick_us, svc.tick_frac                 setup_p50_us, setup_p99_us (not capacity)
//	service   svc.retransmit_frac                        setup_p99_us
//	service   proto.marshal_ns, proto.unmarshal_ns,      capacity_fps, flows_per_cpu_s
//	          routing.shortest_legal_ns, core.open_be_ns,
//	          core.reserve_ns, core.close_ns (replay pass)
//	recover   recovery.tick_ns, recovery.react_ms,       slots_per_s
//	          simnet.step_ns
//	recover   recovery.detect_lag_slots,                 sim_outage_slots
//	          recovery.reconfig_slots,
//	          reconfig.rounds_per_incident,
//	          reconfig.msgs_per_round,
//	          recovery.failed_reroute_frac
//
// The traced run also reports the simulated results, the tracing
// overhead (trace.overhead_frac: untraced over traced headline, minus
// one) and each layer's self time as a share of the traced wall time,
// with an explicit other.self_frac for time outside every span. A layer
// a workload does not exercise reads 0 there. Exact allocation counts
// come from runtime.MemStats deltas around each call after a warm-up
// repetition. Kept spans (every 64th slot or request) are written as
// JSONL to --trace-out.
//
// # Design choices, with reasons
//
//   - The JSON end-to-end metrics are the four generic ones above rather
//     than per-workload names, since every run reports every end-to-end
//     metric and most workload-specific figures exist on one workload only.
//     Per-slot p50 and all p99 figures are printed but carry no regression
//     bound: their run-to-run spread on a shared 2-vCPU host (29% and up to
//     40%) exceeds the largest bound a metric may have (25%).
//   - fabric is not built with core.New: its boot reconfiguration runs the
//     goroutine runner, whose spanning tree, and so every route, differed
//     in five of six boots of the same fat-tree, which would make the
//     simulated results irreproducible. Circuit setup is timed as
//     simnet.open_ns there; core's calls are timed in the service replay.
//   - capacity_fps is printed without a bound. A rung passes when the
//     generator kept its schedule, no operation failed, the open backlog
//     stayed under 384 and answers kept pace (≥ 98% of offered). A p99 ≤ 5
//     ms condition is reported per rung but not applied: on a 2-vCPU host
//     the idle-tick LAN.Run(256) takes about 1.7 ms, and p99 is already
//     4–11 ms at 1,000–2,000 flows/s. Even so, host stalls move the
//     sustained rate between runs (15.8k to 23.3k flows/s was measured),
//     too much for a bound; flows_per_cpu_s is the bounded service
//     throughput.
package main
