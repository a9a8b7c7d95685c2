package main

import (
	"fmt"
	"io"
)

// metricDef names one reported metric. BENCHMARK.json repeats these
// tables; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees, the same six on every
// workload. Latency is per op as the workload defines it. The timed
// metrics carry the widest bound the contract allows: over ten runs on
// this shared 2-core box their spread is 0.5–12 % depending on the
// workload and the hour (bench/README.md). The two counted metrics
// repeat to 0.3 % and carry tight bounds. CPU per op is not here but in
// perLayer: the same work costs this box 10–45 % more CPU in some hours
// than in others, so no bound the contract allows would hold.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.05},
	{"retained_mb", "MB", "lower", 0.03},
}

// perLayer is the outside-in budget of a traced run: spans around the
// harness's own calls into each layer, counters read at the same
// boundaries, and direct probes of each layer's public functions on
// the workload's own instances. Metrics that do not apply to a
// workload (recover.* outside restart-recover, journal appends without
// a journal) read 0.
var perLayer = []metricDef{
	{"client.submit_ms", "ms", "lower", 0},
	{"client.wait_ms", "ms", "lower", 0},
	{"client.http_calls_per_op", "count", "lower", 0},
	{"rest.overhead_ms", "ms", "lower", 0},
	{"rest.dryrun_ms", "ms", "lower", 0},
	{"core.schedule_us", "us", "lower", 0},
	{"core.plan_us", "us", "lower", 0},
	{"core.plan_depth", "count", "lower", 0},
	{"core.plan_nodes", "count", "lower", 0},
	{"verify.plan_us", "us", "lower", 0},
	{"explore.plan_us", "us", "lower", 0},
	{"synth.us", "us", "lower", 0},
	{"engine.admit_us", "us", "lower", 0},
	{"engine.queue_ms", "ms", "lower", 0},
	{"engine.exec_ms", "ms", "lower", 0},
	{"engine.install_us", "us", "lower", 0},
	{"engine.running_mean", "count", "higher", 0},
	{"engine.retained_kb_per_job", "KB", "lower", 0},
	{"dispatch.batch_mean_msgs", "count", "higher", 0},
	{"dispatch.batched_writes_per_op", "count", "lower", 0},
	{"dispatch.journal_batch_mean", "count", "higher", 0},
	{"dispatch.acks_dropped", "count", "lower", 0},
	{"journal.append_us", "us", "lower", 0},
	{"journal.admit_append_us", "us", "lower", 0},
	{"journal.sync_us_tmpfs", "us", "lower", 0},
	{"journal.sync_us_disk", "us", "lower", 0},
	{"journal.records_per_update", "count", "lower", 0},
	{"journal.bytes_per_update", "B", "lower", 0},
	{"journal.open_ms", "ms", "lower", 0},
	{"journal.compact_ms", "ms", "lower", 0},
	{"openflow.flowmod_encode_ns", "ns", "lower", 0},
	{"openflow.flowmod_decode_ns", "ns", "lower", 0},
	{"ofconn.writebatch_us", "us", "lower", 0},
	{"ofconn.msgs_per_install", "count", "lower", 0},
	{"switchsim.barrier_rtt_us", "us", "lower", 0},
	{"switchsim.connect_ms", "ms", "lower", 0},
	{"recover.reconnect_ms", "ms", "lower", 0},
	{"recover.recover_call_ms", "ms", "lower", 0},
	{"recover.resume_ms", "ms", "lower", 0},
	{"recover.adopted_ratio", "ratio", "higher", 0},
	{"recover.rolledback_ratio", "ratio", "lower", 0},
	{"recover.requeued_ratio", "ratio", "higher", 0},
	{"proc.cpu_ms_per_op", "ms", "lower", 0},
	{"proc.gc_cpu_fraction", "ratio", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.goroutines_peak", "count", "lower", 0},
	{"trace.overhead_ratio", "ratio", "higher", 0},
}

// printTable prints every metric of defs by name with its unit.
func printTable(w io.Writer, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-32s %14.4f %s\n", d.name, values[d.name], d.unit)
	}
}
