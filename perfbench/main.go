// Command perfbench is GPUnion's end-to-end load benchmark. It stands up
// the coordinator stack as cmd/coordinator composes it (fsynced WAL,
// semi-synchronous in-process standby, HTTP on loopback) in a process
// of its own, drives it open-loop from a generator that also plays the
// provider agents, checks the outcome, and prints the metrics named in
// BENCHMARK.json. Run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload fleet-relayed --seed 1 --seconds 40 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// seed untraced and then traced, and reports the per-layer metrics,
// the tracing overhead and a closure line per route. The last line of
// standard output is one JSON object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

var errOut io.Writer = os.Stderr

var errUsage = errors.New("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1")

func main() {
	if role := os.Getenv(roleEnv); role != "" {
		os.Exit(runRole(role, os.Args[1:]))
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "fleet-relayed or queue-saturated")
	seed := fs.Uint64("seed", 1, "schedule seed")
	seconds := fs.Int("seconds", 40, "measured window in seconds")
	trace := fs.Int("trace", 0, "1: per-layer metrics from a traced run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(errOut, errUsage)
		os.Exit(2)
	}
	out, err := runBench(benchOpts{wl: wl, seed: *seed, window: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, setups: 3, log: os.Stdout})
	if err != nil {
		fmt.Fprintln(errOut, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(errOut, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func runRole(role string, args []string) int {
	var err error
	switch role {
	case "coord":
		err = runCoord(args)
	case "relay":
		err = runRelay(args)
	default:
		err = fmt.Errorf("unknown role %q", role)
	}
	if err != nil {
		fmt.Fprintf(errOut, "perfbench %s: %v\n", role, err)
		return 1
	}
	return 0
}

type benchOpts struct {
	wl     workload
	seed   uint64
	window time.Duration
	traced bool
	// setups is how many times an untraced run sets the stack up; the
	// last set-up is measured, setup_s is the median of all.
	setups int
	log    io.Writer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runBench(o benchOpts) (result, error) {
	s := buildSchedule(o.wl, o.seed, o.window)
	runDir, err := filepath.Abs(filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-s%d-t%v", o.wl.name, o.seed, o.traced)))
	if err != nil {
		return result{}, err
	}
	if err := os.RemoveAll(runDir); err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return result{}, err
	}
	fmt.Fprintf(o.log, "workload %s seed %d window %v trace %v schedule %s\n", o.wl.name, o.seed, o.window, o.traced, s.fingerprint())
	if !o.traced {
		var setups []float64
		var st *stack
		for k := 0; k < o.setups; k++ {
			if st != nil {
				st.close()
			}
			var d time.Duration
			st, d, err = newStack(s, false, runDir, k)
			if err != nil {
				return result{}, err
			}
			setups = append(setups, d.Seconds())
		}
		m, err := st.measure()
		st.close()
		if err != nil {
			return result{}, err
		}
		return reportE2E(o.log, m, setups), nil
	}
	plain, err := measureOnce(s, false, runDir)
	if err != nil {
		return result{}, err
	}
	traced, err := measureOnce(s, true, runDir)
	if err != nil {
		return result{}, err
	}
	return reportLayers(o.log, plain, traced), nil
}

func measureOnce(s schedule, traced bool, runDir string) (measurement, error) {
	k := 0
	if traced {
		k = 1
	}
	st, _, err := newStack(s, traced, runDir, k)
	if err != nil {
		return measurement{}, err
	}
	defer st.close()
	return st.measure()
}

// stack is one set-up of the system under test plus its generator.
type stack struct {
	s     schedule
	dir   string
	coord *child
	relay *child
	gen   *generator
}

func newStack(s schedule, traced bool, runDir string, k int) (*stack, time.Duration, error) {
	start := time.Now()
	st := &stack{s: s, dir: filepath.Join(runDir, fmt.Sprintf("wal-%d", k))}
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return nil, 0, err
	}
	var hello helloMsg
	var err error
	st.coord, err = startChild("coord", &hello, "-dir", st.dir, fmt.Sprintf("-trace=%v", traced),
		"-spans", filepath.Join(runDir, "spans-coordinator.jsonl"))
	if err != nil {
		return nil, 0, err
	}
	relayURL := ""
	if s.wl.relays > 0 {
		var rh helloMsg
		st.relay, err = startChild("relay", &rh, "-coord", hello.Addr, "-relays", fmt.Sprint(s.wl.relays),
			fmt.Sprintf("-trace=%v", traced), "-spans", filepath.Join(runDir, "spans-relay.jsonl"))
		if err != nil {
			st.close()
			return nil, 0, err
		}
		relayURL = rh.Addr
	}
	st.gen, err = newGenerator(s, traced, hello.Addr, relayURL)
	if err != nil {
		st.close()
		return nil, 0, err
	}
	if err := st.gen.setUp(); err != nil {
		st.close()
		return nil, 0, err
	}
	return st, time.Since(start), nil
}

func (st *stack) close() {
	if st.relay != nil {
		st.relay.stop()
	}
	if st.coord != nil {
		st.coord.stop()
	}
	if st.gen != nil {
		st.gen.close()
	}
	_ = os.RemoveAll(st.dir)
}

// measurement is one window's outcome on both sides.
type measurement struct {
	wl       workload
	res      samples
	window   time.Duration
	coordCPU float64 // µs over the window
	coordRSS float64 // MiB, peak
	relayCPU float64
	gate     gateReport
	relay    relayStats
	ledger   []string
}

// measure runs the window, quiesces and audits.
func (st *stack) measure() (measurement, error) {
	m := measurement{wl: st.s.wl}
	var c0, c1, r0, r1 usage
	if err := st.coord.call("mark", &c0); err != nil {
		return m, err
	}
	if st.relay != nil {
		if err := st.relay.call("mark", &r0); err != nil {
			return m, err
		}
	}
	st.gen.openWindow()
	st.gen.dispatch(st.gen.t0.Add(st.s.window))
	m.window = time.Since(st.gen.t0)
	if err := st.coord.call("usage", &c1); err != nil {
		return m, err
	}
	m.coordCPU, m.coordRSS = c1.CPUUS-c0.CPUUS, c1.MaxRSSMiB
	if st.relay != nil {
		if err := st.relay.call("usage", &r1); err != nil {
			return m, err
		}
		m.relayCPU = r1.CPUUS - r0.CPUUS
		if err := st.relay.call("flush", &m.relay); err != nil {
			return m, err
		}
	}
	if err := st.coord.call("gate", &m.gate); err != nil {
		return m, err
	}
	m.ledger = st.gen.checkLedger(m.gate.Jobs)
	st.gen.mu.Lock()
	m.res = st.gen.res
	st.gen.mu.Unlock()
	return m, nil
}

// gateFailures lists every correctness-gate finding.
func (m measurement) gateFailures() []string {
	var out []string
	add := func(what string, vs []string) {
		for _, v := range vs {
			out = append(out, what+": "+v)
		}
	}
	add("lost acked mutation", m.gate.LostAcked)
	add("WAL recovery", m.gate.Equivalence)
	add("scheduler pool", m.gate.PoolAudit)
	add("ledger", m.ledger)
	if m.gate.PumpErrors > 0 {
		out = append(out, fmt.Sprintf("standby: %d pump errors", m.gate.PumpErrors))
	}
	if m.res.ops == 0 {
		out = append(out, "no operations completed in the window")
	}
	for name, xs := range map[string][]float64{"beat_ack": m.res.beat, "submit_launch": m.res.submit, "relaunch": m.res.relaunch} {
		if len(xs) == 0 {
			out = append(out, "no "+name+" samples: the window measured nothing for it")
		}
	}
	return out
}
