package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Tail percentiles are capped at p99 for beats (51 a second on the
// fleet) and at p90 for job events.
const (
	beatCap = 0.99
	jobCap  = 0.90
)

// e2e is the end-to-end view of one measurement.
type e2e struct {
	beat, submit, relaunch dist
	cpuPerOp, rssMiB       float64
}

func endToEnd(m measurement) e2e {
	return e2e{
		beat:     summarize(m.res.beat, beatCap),
		submit:   summarize(m.res.submit, jobCap),
		relaunch: summarize(m.res.relaunch, jobCap),
		cpuPerOp: ratio(m.coordCPU, float64(m.res.ops)),
		rssMiB:   m.coordRSS,
	}
}

// relaunchLabel says which event starts the relaunch clock.
func relaunchLabel(wl workload) string {
	if wl.closed {
		return "completion due -> next Launch onto the freed capacity"
	}
	return "departure due -> displaced job's Launch elsewhere (migration)"
}

// commonReport prints what every run reports and builds the result
// frame: correctness, operation counts and the defect counters.
func commonReport(w io.Writer, m measurement) result {
	r := m.res
	fmt.Fprintf(w, "operations: %d attempted, %d failed (fail_ratio %.4f)", r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	if r.failed > 0 {
		fmt.Fprintf(w, " %v", r.failures)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "departures %d displacing %d jobs; launch calls %d, kill calls %d; generator p99 lateness %.1f ms, connection busy share %.2f\n",
		r.departures, r.displaced, r.launchCalls, r.killCalls, summarize(r.late, beatCap).tail, ratio(r.busy.Seconds(), senders*m.window.Seconds()))
	fmt.Fprintf(w, "dup_launch_ratio %.4f (%d of %d jobs launched in the window got a second Launch); invariant.placement_violations %d\n",
		ratio(float64(r.dupJobs), float64(r.launchedJobs)), r.dupJobs, r.launchedJobs, m.gate.PlacementViolations)
	if len(m.gate.OtherViolations) > 0 {
		fmt.Fprintf(w, "other invariant findings (reported, not gated): %d, e.g. %s\n", len(m.gate.OtherViolations), m.gate.OtherViolations[0])
	}
	bad := m.gateFailures()
	if len(bad) == 0 {
		fmt.Fprintln(w, "correctness gate: pass (no lost acked mutation, WAL recovery equivalent, scheduler pool clean, ledger consistent)")
	} else {
		fmt.Fprintf(w, "correctness gate: FAIL (%d findings)\n", len(bad))
		for i, b := range bad {
			if i == 10 {
				fmt.Fprintf(w, "  ... %d more\n", len(bad)-i)
				break
			}
			fmt.Fprintln(w, "  "+b)
		}
	}
	return result{Correct: len(bad) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
}

func reportE2E(w io.Writer, m measurement, setups []float64) result {
	out := commonReport(w, m)
	e := endToEnd(m)
	setup := summarize(setups, 1).p50
	fmt.Fprintf(w, "setup_s %.3f (median of %v)\n", setup, setups)
	fmt.Fprintf(w, "beat_ack ms: %v\n", e.beat)
	fmt.Fprintf(w, "submit_launch ms: %v\n", e.submit)
	fmt.Fprintf(w, "relaunch ms (%s): %v\n", relaunchLabel(m.wl), e.relaunch)
	fmt.Fprintf(w, "coord_cpu_us_per_op %.1f (%.0f ms CPU over %d ops in %.1f s); coord_rss_mb %.1f\n",
		e.cpuPerOp, m.coordCPU/1e3, m.res.ops, m.window.Seconds(), e.rssMiB)
	put := func(name, unit string, v float64) { out.Metrics[name] = metric{Value: v, Unit: unit} }
	// The tails and the beat median are printed above but reported only
	// as per-layer metrics: across seeds they spread wider than any
	// bound BENCHMARK.json may set (see README.md).
	put("setup_s", "s", setup)
	put("submit_launch_p50_ms", "ms", e.submit.p50)
	put("relaunch_p50_ms", "ms", e.relaunch.p50)
	put("coord_cpu_us_per_op", "us", e.cpuPerOp)
	put("coord_rss_mb", "MiB", e.rssMiB)
	return out
}

// layerNames groups span names into the layers the closure reports.
var layerNames = []struct{ layer, span string }{
	{"core", "core"},
	{"db.read", "db.read"},
	{"db.read", "db.pending_count"},
	{"db.scan", "db.scan"},
	{"db.write", "db.write"},
	{"wal", "wal.durable"},
	{"standby", "standby.ship"},
	{"agent", "launch.rpc"},
	{"agent", "kill.rpc"},
	{"agent", "checkpoint.rpc"},
}

// reportLayers reports the per-layer metrics of the traced pass and
// the untraced figures beside them; the run is correct only if both
// passes pass the gate.
func reportLayers(w io.Writer, plain, traced measurement) result {
	fmt.Fprintln(w, "untraced pass:")
	a0 := commonReport(w, plain)
	fmt.Fprintln(w, "traced pass:")
	out := commonReport(w, traced)
	out.Correct = out.Correct && a0.Correct
	out.Attempted += a0.Attempted
	out.Failed += a0.Failed
	r := traced.res
	ops := float64(r.ops)
	win := traced.gate.Window
	if win == nil {
		win = &coordWindow{}
	}
	route := func(n string) float64 {
		if ra := win.Trace.Routes[n]; ra != nil {
			return ratio(ra.ServerUS, float64(ra.N))
		}
		return 0
	}
	var relayTrace traceAgg
	if traced.relay.Trace != nil {
		relayTrace = *traced.relay.Trace
	}
	var gap, gapN float64
	for rid, c := range r.clientSeen {
		if s, ok := win.Trace.Server[rid]; ok {
			gap += c - s
			gapN++
		}
	}
	ct := win.Trace
	reads, pend, scans, writes := ct.stat("db.read"), ct.stat("db.pending_count"), ct.stat("db.scan"), ct.stat("db.write")
	durable, fsync, ship, launch := ct.stat("wal.durable"), ct.stat("wal.fsync"), ct.stat("standby.ship"), ct.stat("launch.rpc")
	relayed := traced.relay.Folded + traced.relay.Passthrough
	ingest, forward := relayTrace.stat("relay.ingest"), relayTrace.stat("relay.forward")
	late := summarize(r.late, beatCap)

	type lm struct {
		name, unit string
		v          float64
		applies    bool
	}
	fleet, hasRelay := !plain.wl.closed, plain.wl.relays > 0
	a, b := endToEnd(plain), endToEnd(traced)
	ms := []lm{
		{"beat_ack_p50_ms", "ms", a.beat.p50, true},
		{"beat_ack_tail_ms", "ms", a.beat.tail, true},
		{"submit_launch_tail_ms", "ms", a.submit.tail, true},
		{"relaunch_tail_ms", "ms", a.relaunch.tail, true},
		{"http.heartbeat_us", "us", route("heartbeat"), win.Trace.Routes["heartbeat"] != nil},
		{"http.aggregated_us_per_beat", "us", ratio(routeTotal(win.Trace.Routes["aggregated"]), float64(relayed)), hasRelay},
		{"http.jobs_us", "us", route("jobs"), true},
		{"http.jobupdate_us", "us", route("jobupdate"), true},
		{"http.depart_us", "us", route("depart"), fleet},
		{"net.client_gap_us", "us", ratio(gap, gapN), true},
		{"db.reads_per_op", "1/op", ratio(float64(reads.N+pend.N), ops), true},
		{"db.read_us", "us", ratio(reads.DurUS+pend.DurUS, float64(reads.N+pend.N)), true},
		{"db.writes_per_op", "1/op", ratio(float64(writes.N), ops), true},
		{"db.write_self_us", "us", ratio(writes.SelfUS, float64(writes.N)), true},
		{"db.scans_per_op", "1/op", ratio(float64(scans.N), ops), true},
		{"wal.durable_us", "us", ratio(durable.SelfUS, float64(durable.N)), true},
		{"wal.fsync_us", "us", ratio(fsync.DurUS, float64(fsync.N)), true},
		{"wal.fsyncs_per_s", "1/s", ratio(float64(fsync.N), traced.window.Seconds()), true},
		{"wal.records_per_fsync", "records", ratio(float64(durable.N), float64(fsync.N)), true},
		{"wal.bytes_per_op", "B/op", ratio(float64(win.WALBytes), ops), true},
		{"standby.ship_us", "us", ratio(ship.DurUS, float64(ship.N)), true},
		{"standby.cpu_share", "ratio", ratio(ship.CPUUS, traced.coordCPU), true},
		{"standby.lag_records", "records", float64(traced.gate.LagRecords), true},
		{"sched.passes_per_op", "1/op", ratio(float64(pend.N), ops), true},
		{"sched.decision_us", "us", 1e6 * ratio(win.SchedSeconds, win.SchedDecisions), true},
		{"sched.useful_ratio", "ratio", ratio(float64(win.Placements-win.Migrations), win.SchedDecisions), true},
		{"launch.rpc_us", "us", ratio(launch.DurUS, float64(launch.N)), true},
		{"launch.calls_per_job", "1/job", ratio(float64(r.launchCalls), float64(r.launchedJobs)), true},
		{"kill.calls_per_op", "1/op", ratio(float64(r.killCalls), ops), true},
		{"migration.success_ratio", "ratio", ratio(float64(win.MigSuccesses), float64(win.MigAttempts)), fleet},
		{"migration.displaced_per_depart", "1/depart", ratio(float64(r.displaced), float64(r.departures)), fleet},
		{"relay.ingest_us", "us", ratio(ingest.SelfUS, float64(ingest.N)), hasRelay},
		{"relay.fold_ratio", "ratio", ratio(float64(traced.relay.Folded), float64(relayed)), hasRelay},
		{"relay.forward_us", "us", ratio(forward.DurUS, float64(forward.N)), hasRelay},
		{"relay.beats_per_forward", "1/forward", ratio(float64(relayed), float64(traced.relay.Forwards)), hasRelay},
		{"relay.coord_requests_per_beat", "1/beat", ratio(float64(traced.relay.Forwards)+float64(r.fallbacks), float64(r.relayBeats)), hasRelay},
		{"relay.cpu_us_per_beat", "us", ratio(traced.relayCPU, float64(r.relayBeats)), hasRelay},
		{"gen.late_p99_ms", "ms", late.tail, true},
		{"gen.conn_busy_share", "ratio", ratio(r.busy.Seconds(), senders*traced.window.Seconds()), true},
		{"fail_ratio", "ratio", ratio(float64(r.failed), float64(r.attempted)), true},
		{"dup_launch_ratio", "ratio", ratio(float64(r.dupJobs), float64(r.launchedJobs)), true},
		{"invariant.placement_violations", "count", float64(traced.gate.PlacementViolations), true},
	}
	fmt.Fprintln(w, "per-layer metrics (traced run; the beat_ack and tail figures from the untraced pass):")
	for _, x := range ms {
		if x.applies {
			fmt.Fprintf(w, "  %-32s %12.4f %s\n", x.name, x.v, x.unit)
		} else {
			fmt.Fprintf(w, "  %-32s %12s (does not apply to this workload)\n", x.name, "n/a")
		}
		out.Metrics[x.name] = metric{Value: x.v, Unit: x.unit}
	}

	// Tracing overhead: the same seed, untraced then traced.
	fmt.Fprintln(w, "tracing overhead (traced minus untraced, same seed and window):")
	for _, x := range []struct {
		name string
		u, t float64
	}{
		{"beat_ack_p50_ms", a.beat.p50, b.beat.p50},
		{"submit_launch_p50_ms", a.submit.p50, b.submit.p50},
		{"relaunch_p50_ms", a.relaunch.p50, b.relaunch.p50},
		{"coord_cpu_us_per_op", a.cpuPerOp, b.cpuPerOp},
	} {
		fmt.Fprintf(w, "  %-24s untraced %10.3f traced %10.3f overhead %+10.3f (%+.1f%%)\n", x.name, x.u, x.t, x.t-x.u, 100*ratio(x.t-x.u, x.u))
	}

	// Closure per route: time from due = generator lateness + client-seen
	// time; client-seen = network gap + server time; server time = the
	// self times of the layers on the route's path.
	fmt.Fprintln(w, "closure per route (means, ms):")
	var routes []string
	for rt := range win.Trace.Routes {
		routes = append(routes, rt)
	}
	sort.Strings(routes)
	totals := map[string]float64{}
	var totalServer float64
	for _, rt := range routes {
		ra := win.Trace.Routes[rt]
		server := ratio(ra.ServerUS, float64(ra.N)) / 1e3
		layers := map[string]float64{}
		var parts []string
		var sum float64
		for _, ln := range layerNames {
			v := ra.SelfUS[ln.span]
			layers[ln.layer] += v
			totals[ln.layer] += v
			sum += v
		}
		totalServer += ra.ServerUS
		for _, ln := range []string{"core", "db.read", "db.scan", "db.write", "wal", "standby", "agent"} {
			parts = append(parts, fmt.Sprintf("%s %.3f", ln, layers[ln]/float64(ra.N)/1e3))
		}
		e2eMean, lateMean, client := mean(r.routeE2E[rt]), mean(r.routeLate[rt]), mean(r.routeClient[rt])/1e3
		if len(r.routeE2E[rt]) == 0 {
			fmt.Fprintf(w, "  %-10s n=%d server %.3f = %s (no client ops on this route)\n", rt, ra.N, server, strings.Join(parts, " + "))
			continue
		}
		rem := e2eMean - lateMean - (client - server) - sum/float64(ra.N)/1e3
		fmt.Fprintf(w, "  %-10s n=%d from-due %.3f = late %.3f + gap %.3f + server %.3f [%s]; unexplained %.3f (%.1f%%)\n",
			rt, ra.N, e2eMean, lateMean, client-server, server, strings.Join(parts, " + "), rem, 100*ratio(rem, e2eMean))
	}
	top, topV := "", 0.0
	for ln, v := range totals {
		if v > topV {
			top, topV = ln, v
		}
	}
	fmt.Fprintf(w, "largest self-time layer on the blocking path: %s (%.1f%% of server time)\n", top, 100*ratio(topV, totalServer))
	return out
}

func routeTotal(ra *routeAgg) float64 {
	if ra == nil {
		return 0
	}
	return ra.ServerUS
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
