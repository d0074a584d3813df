package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary serve the coordinator and relay roles
// the smoke runs start as child processes.
func TestMain(m *testing.M) {
	if role := os.Getenv(roleEnv); role != "" {
		os.Exit(runRole(role, os.Args[1:]))
	}
	os.Exit(m.Run())
}

func TestSummarizeLeavesTenSamplesBeyondTheTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: summarize must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		capQ    float64
		wantQ   float64
		wantP50 float64
	}{
		{n: 2000, capQ: 0.99, wantQ: 0.99, wantP50: 1000},
		{n: 1000, capQ: 0.99, wantQ: 0.99, wantP50: 500},
		{n: 400, capQ: 0.99, wantQ: 0.975, wantP50: 200},
		{n: 100, capQ: 0.90, wantQ: 0.90, wantP50: 50},
		{n: 60, capQ: 0.90, wantQ: 50.0 / 60, wantP50: 30},
		{n: 300, capQ: 0.90, wantQ: 0.90, wantP50: 150},
		{n: 11, capQ: 0.99, wantQ: 1.0 / 11, wantP50: 6},
	} {
		t.Run(fmt.Sprint(tc.n), func(t *testing.T) {
			d := summarize(seq(tc.n), tc.capQ)
			if d.n != tc.n {
				t.Errorf("n = %d, want %d", d.n, tc.n)
			}
			if d.p50 != tc.wantP50 {
				t.Errorf("p50 = %v, want %v", d.p50, tc.wantP50)
			}
			if d.tailQ != tc.wantQ {
				t.Errorf("tail percentile = %v, want %v", d.tailQ, tc.wantQ)
			}
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > d.tail {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("%d samples beyond the tail, want at least %d", beyond, minBeyond)
			}
		})
	}
	if d := summarize(seq(10), 0.99); d.tailQ != 1 || d.tail != 10 || d.n != 10 {
		t.Errorf("10 samples: got %+v, want the maximum flagged with tailQ 1", d)
	}
}

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	for name, wl := range workloads {
		a := buildSchedule(wl, 7, 20*time.Second)
		b := buildSchedule(wl, 7, 20*time.Second)
		c := buildSchedule(wl, 8, 20*time.Second)
		if a.fingerprint() != b.fingerprint() {
			t.Errorf("%s: seed 7 gave two schedules", name)
		}
		if a.fingerprint() == c.fingerprint() {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", name)
		}
	}
}

// TestTracedRunNeedsBothPassesToPass checks that a --trace 1 run is
// correct only when the untraced and the traced pass both pass the
// gate, and that a pass without samples for a reported latency fails.
func TestTracedRunNeedsBothPassesToPass(t *testing.T) {
	good := measurement{wl: workloads["queue-saturated"], window: time.Second, res: newSamples()}
	good.res.ops, good.res.attempted = 1, 1
	good.res.beat, good.res.submit, good.res.relaunch = []float64{1}, []float64{1}, []float64{1}
	empty := good
	empty.res.relaunch = nil
	lost := good
	lost.gate.LostAcked = []string{"mutation 7"}
	if !reportLayers(io.Discard, good, good).Correct {
		t.Error("both passes clean: want correct")
	}
	for name, pair := range map[string][2]measurement{
		"untraced pass without relaunch samples": {empty, good},
		"untraced pass lost an acked mutation":   {lost, good},
		"traced pass without relaunch samples":   {good, empty},
	} {
		if reportLayers(io.Discard, pair[0], pair[1]).Correct {
			t.Errorf("%s: want incorrect", name)
		}
	}
}

// TestSmokeRunsPassTheGate runs every workload briefly against the
// real stack and requires the correctness gate to pass and every
// end-to-end metric BENCHMARK.json names to be reported.
func TestSmokeRunsPassTheGate(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the coordinator stack")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"queue-saturated", "fleet-relayed"} {
		t.Run(name, func(t *testing.T) {
			out, err := runBench(benchOpts{wl: workloads[name], seed: 1, window: 3 * time.Second, setups: 1, log: io.Discard})
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct {
				t.Fatalf("correctness gate failed: %+v", out)
			}
			if out.Attempted == 0 {
				t.Fatal("no operations attempted")
			}
			for _, m := range spec.EndToEnd {
				got, ok := out.Metrics[m.Name]
				if !ok || got.Value <= 0 || got.Unit != m.Unit {
					t.Errorf("%s = %+v, want a positive value in %s", m.Name, got, m.Unit)
				}
			}
		})
	}
}
