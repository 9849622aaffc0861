package main

// metric is one reported number. End-to-end metrics carry the bound by
// which a change may worsen them (a share of the parent's median) before
// -compare calls it a regression; per-layer metrics have no bound.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Every one is non-zero on every workload. The host-timed
// bounds are the widest allowed because on the shared 2-core machine
// the benchmark was defined on, medians of ten runs still moved by up
// to 17% between sets (README.md); alloc_bytes_per_op barely moves
// between runs and keeps a tight bound.
var endToEnd = []metric{
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_tail_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_bytes_per_op", "B/op", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// cpuModules are the internal packages the CPU profile is split over;
// every other sample lands in runtime, syscall, gob or other.
var cpuModules = []string{
	"sfi", "graft", "txn", "lock", "guard", "tenant", "crash", "fault", "fs",
	"vmm", "netstk", "sched", "simclock", "trace", "resource", "kernel",
	"fleet", "harness",
}

// perLayer are the traced run's metrics. Span metrics are host
// nanoseconds per operation, averaged over every op of the phase, so
// the children of graft.invoke_ns add up to it; a span a workload never
// crosses, or cannot be seen from outside on it, reads 0. Counts are per
// op; *_frac are shares.
var perLayer = func() []metric {
	ms := []metric{
		{"graft.invoke_ns", "ns/op", "lower", 0},
		{"graft.enter_ns", "ns/op", "lower", 0},
		{"graft.exit_ns", "ns/op", "lower", 0},
		{"graft.default_ns", "ns/op", "lower", 0},
		{"sfi.exec_ns", "ns/op", "lower", 0},
		{"sfi.call_floor_ns", "ns", "lower", 0},
		{"txn.abort_ns", "ns/op", "lower", 0},
		{"txn.run_floor_ns", "ns", "lower", 0},
		{"txn.commits_per_op", "count/op", "lower", 0},
		{"txn.aborts_per_op", "count/op", "lower", 0},
		{"txn.undos_per_op", "count/op", "lower", 0},
		{"lock.acquisitions_per_op", "count/op", "lower", 0},
		{"guard.admit_commit_ns", "ns", "lower", 0},
		{"simclock.after_cancel_ns", "ns", "lower", 0},
		{"trace.events_per_op", "count/op", "lower", 0},
		{"fs.read_self_ns", "ns/op", "lower", 0},
		{"crash.checkpoints_per_op", "count/op", "lower", 0},
		{"crash.recoveries_per_op", "count/op", "lower", 0},
		{"crash.rolled_back_kb_per_op", "KiB/op", "lower", 0},
		{"crash.scoped_frac", "frac", "higher", 0},
		{"fault.injections_per_op", "count/op", "lower", 0},
		{"fleet.served_frac", "frac", "higher", 0},
		{"fleet.shed_frac", "frac", "lower", 0},
		{"fleet.failed_frac", "frac", "lower", 0},
		{"fleet.replacements_per_op", "count/op", "lower", 0},
		{"fleet.recoveries_per_op", "count/op", "lower", 0},
		{"netstk.socket_denials_per_op", "count/op", "lower", 0},
		{"sim.virt_us_per_op", "virt_us/op", "lower", 0},
		{"runtime.allocs_per_op", "count/op", "lower", 0},
		{"runtime.gc_cpu_frac", "frac", "lower", 0},
	}
	for _, m := range append(append([]string(nil), cpuModules...), "runtime", "syscall", "gob", "other") {
		ms = append(ms, metric{"cpu." + m + "_frac", "frac", "lower", 0})
	}
	return append(ms, metric{"bench.trace_overhead_frac", "frac", "lower", 0})
}()
