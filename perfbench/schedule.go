package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"time"

	training "gpunion/internal/workload"
)

// workload is one traffic mix. Every number in it is fixed; the seed
// only decides phases, arrival instants, durations and departure picks.
type workload struct {
	name string
	// nodes providers with gpusPerNode RTX 3090s each.
	nodes, gpusPerNode int
	// relays > 0 routes beats through that many rack relays.
	relays int
	// prefill jobs are submitted during set-up; their remaining run time
	// starts counting when the measured window opens.
	prefill int
	// submitPerSec is the open-loop Poisson arrival rate (fleet-relayed).
	submitPerSec float64
	// closed: every completion resubmits one batch job
	// (queue-saturated); open arrivals include sessions at
	// fig2Interactive.
	closed bool
	// departEvery is the departure cadence; 0 disables departures.
	departEvery time.Duration
}

const (
	beatEvery      = 10 * time.Second // config.Coordinator default
	telemetryEvery = 6                // every 6th beat carries telemetry
	returnAfter    = 30 * time.Second // a departed provider re-registers
	relayFlush     = 5 * time.Second  // cmd/aggregator's FlushInterval
	nodesPerRelay  = 64
)

// The job mix follows the demand model of the paper's utilization
// study (internal/sim/fig2.go, campusDemand and campusCrossDemand):
// per day, 8 workstations submit 7 batch jobs and 2.5 sessions each,
// the 4090 server 50 and 2, the A100 server 2.4 and 1, the A6000 server
// 16 and 1.5, and GPU-less users 120 and 1.5. Sessions are therefore
// 26 of 270.4 daily submissions. Batch jobs draw from the cross-lab
// mix (the largest stream) and sessions from sessionFrom's memory
// sizes. Only durations are compressed, from hours to about a minute,
// so that jobs start, finish and migrate inside one window.
const fig2Interactive = (8*2.5 + 2 + 1 + 1.5 + 1.5) / (8*2.5 + 2 + 1 + 1.5 + 1.5 + 8*7 + 50 + 2.4 + 16 + 120)

var crossLabMix = []struct {
	share float64
	spec  training.TrainingSpec
}{
	{0.55, training.SmallCNN},
	{0.30, training.SmallTransformer},
	{0.15, training.LargeCNN},
}

var workloads = map[string]workload{
	// 1024 GPUs, about a quarter busy: 256 jobs at a mean of 72 s need
	// 3.5 arrivals/s; 3.2 departures/s of busy providers displace about
	// 100 jobs in a 40 s window. 512 providers, not 1024: on a 2-vCPU
	// VM telemetry beats cost about 15 ms each, and 1024 kept the two
	// connections 43-57% busy, so beat latency swung with it from run
	// to run. Beats go through 8 rack relays of 64.
	"fleet-relayed": {
		name: "fleet-relayed", nodes: 512, gpusPerNode: 2, relays: 8,
		prefill: 256, submitPerSec: 3.5,
		departEvery: 312 * time.Millisecond,
	},
	// 400 GPUs, 480 jobs of mean 90 s: the queue never drains and
	// about 4.4 jobs complete (and resubmit) per second. With a mean
	// of 45 s the two connections were 22-36% busy on a 2-vCPU VM and
	// the relaunch median swung 2-3 times as far as the host's speed
	// from run to run; at 90 s they are 12-16% busy.
	"queue-saturated": {
		name: "queue-saturated", nodes: 200, gpusPerNode: 2,
		prefill: 480, closed: true,
	},
}

// jobSpec is one generated job. key is the generator's own name for it;
// it rides in the submission's entrypoint so the synthetic agent can
// recognise the job in the Launch that may overtake the submit reply.
type jobSpec struct {
	key         int
	interactive bool
	dur         time.Duration
	memMiB      int64
	// training is a batch job's model; zero for a session.
	training training.TrainingSpec
	// residual is the share of dur still to run when the window opens
	// (prefilled jobs only).
	residual float64
}

// arrival is a submission due at offset at from the window start.
type arrival struct {
	at  time.Duration
	job jobSpec
}

// departure is a temporary departure due at offset at. pick selects
// the provider: the first busy, present node at or after pick mod N.
type departure struct {
	at   time.Duration
	pick uint32
}

// schedule is the whole seeded operation plan of one run.
type schedule struct {
	wl     workload
	window time.Duration
	// phase[i] is node i's first beat offset in [0, beatEvery).
	phase    []time.Duration
	prefill  []jobSpec
	arrivals []arrival
	// resubmits feeds the closed loop: the n-th completion in the
	// window resubmits resubmits[n].
	resubmits  []jobSpec
	departures []departure
}

// buildSchedule derives the run's plan from the seed alone.
func buildSchedule(wl workload, seed uint64, window time.Duration) schedule {
	rng := rand.New(rand.NewPCG(seed, 0x67707531))
	s := schedule{wl: wl, window: window}

	// Phases spread evenly over the interval, in a seeded node order.
	perm := rng.Perm(wl.nodes)
	s.phase = make([]time.Duration, wl.nodes)
	slot := beatEvery / time.Duration(wl.nodes)
	for i, p := range perm {
		s.phase[i] = time.Duration(p)*slot + slot/2
	}

	key := 0
	next := func() jobSpec {
		key++
		return newJob(rng, wl, key)
	}
	for i := 0; i < wl.prefill; i++ {
		j := next()
		j.residual = 1 - rng.Float64() // (0, 1]
		s.prefill = append(s.prefill, j)
	}
	if wl.submitPerSec > 0 {
		for at := time.Duration(0); ; {
			at += time.Duration(rng.ExpFloat64() / wl.submitPerSec * float64(time.Second))
			if at >= window {
				break
			}
			s.arrivals = append(s.arrivals, arrival{at: at, job: next()})
		}
	}
	if wl.closed {
		// Far more than a window can complete; unused specs cost nothing.
		n := int(window.Seconds())*wl.nodes*wl.gpusPerNode/5 + 64
		for i := 0; i < n; i++ {
			s.resubmits = append(s.resubmits, next())
		}
	}
	if wl.departEvery > 0 {
		for at := wl.departEvery / 2; at < window; at += wl.departEvery {
			s.departures = append(s.departures, departure{at: at, pick: rng.Uint32()})
		}
	}
	return s
}

func newJob(rng *rand.Rand, wl workload, key int) jobSpec {
	j := jobSpec{key: key}
	if !wl.closed && rng.Float64() < fig2Interactive {
		// fig2's sessionFrom: 4, 8 or 12 GiB; its 30 min + U(0, 3 h)
		// length compressed 1:112.5 to 16-112 s.
		j.interactive, j.memMiB = true, 4096+int64(rng.IntN(3))*4096
		j.dur = time.Duration((16 + 96*rng.Float64()) * float64(time.Second))
		return j
	}
	x := rng.Float64()
	for _, m := range crossLabMix {
		j.training = m.spec
		if x -= m.share; x < 0 {
			break
		}
	}
	j.memMiB = j.training.GPUMemMiB
	if wl.closed {
		// Batch jobs of 70-110 s (mean 90 s).
		j.dur = time.Duration((70 + 40*rng.Float64()) * float64(time.Second))
	} else {
		// Batch training, 45-100 s.
		j.dur = time.Duration((45 + 55*rng.Float64()) * float64(time.Second))
	}
	return j
}

// fingerprint hashes the whole plan; equal seeds must give equal
// fingerprints (see bench_test.go).
func (s schedule) fingerprint() string {
	sum := sha256.Sum256(fmt.Appendf(nil, "%v", s))
	return fmt.Sprintf("%s/%v/%x", s.wl.name, s.window, sum[:8])
}
