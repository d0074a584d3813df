package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// span is one timed call across a layer boundary. Spans opened on the
// same goroutine nest: the innermost open span is the parent. A span
// opened where no request is open (a timer, a background loop) has
// parent -1 and is attributed by its layer alone.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    string `json:"req,omitempty"`
	// CPU is the thread CPU time inside the span, where measured.
	CPU int64 `json:"cpu_ns,omitempty"`
	gid uint64
}

// tracer keeps every span in memory; dump writes them out at the end.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	open  map[uint64][]int32 // goroutine -> stack of open spans
	from  int                // first span of the measured window
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: make(map[uint64][]int32)}
}

func (t *tracer) begin(name, req string) int32 {
	g := goid()
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := int32(-1)
	if st := t.open[g]; len(st) > 0 {
		parent = st[len(st)-1]
		if req == "" {
			req = t.spans[parent].Req
		}
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: req, gid: g})
	t.open[g] = append(t.open[g], id)
	return id
}

func (t *tracer) end(id int32) { t.endCPU(id, 0) }

func (t *tracer) endCPU(id int32, cpu int64) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id]
	sp.End, sp.CPU = now, cpu
	st := t.open[sp.gid]
	if n := len(st); n > 0 && st[n-1] == id {
		st = st[:n-1]
	}
	if len(st) == 0 {
		delete(t.open, sp.gid)
	} else {
		t.open[sp.gid] = st
	}
}

// mark opens the measured window: aggregate ignores earlier spans.
func (t *tracer) mark() {
	t.mu.Lock()
	t.from = len(t.spans)
	t.mu.Unlock()
}

// spanStat sums durations and self times (duration minus the time
// covered by child spans) in microseconds.
type spanStat struct {
	N      int     `json:"n"`
	DurUS  float64 `json:"dur_us"`
	SelfUS float64 `json:"self_us"`
	CPUUS  float64 `json:"cpu_us"`
}

// routeAgg is one HTTP route's closure: server time and the self time
// of every layer on its path ("core" is the handler's own code).
type routeAgg struct {
	N        int                `json:"n"`
	ServerUS float64            `json:"server_us"`
	SelfUS   map[string]float64 `json:"self_us"`
}

type traceAgg struct {
	Names  map[string]*spanStat `json:"names"`
	Routes map[string]*routeAgg `json:"routes"`
	// Server maps request id -> server time of its root span.
	Server map[string]float64 `json:"server"`
}

// stat returns the named span's totals (zero when it never ran).
func (a traceAgg) stat(name string) spanStat {
	if s := a.Names[name]; s != nil {
		return *s
	}
	return spanStat{}
}

// aggregate folds the window's finished spans. A span whose chain of
// parents ends in an "http <route>" span counts on that route's path.
func (t *tracer) aggregate() traceAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := traceAgg{Names: map[string]*spanStat{}, Routes: map[string]*routeAgg{}, Server: map[string]float64{}}
	child := make([]int64, len(t.spans))
	for _, sp := range t.spans {
		if sp.End > 0 && sp.Parent >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	for i := t.from; i < len(t.spans); i++ {
		sp := t.spans[i]
		if sp.End == 0 {
			continue
		}
		dur := float64(sp.End-sp.Start) / 1e3
		self := dur - float64(child[i])/1e3
		st := a.Names[sp.Name]
		if st == nil {
			st = &spanStat{}
			a.Names[sp.Name] = st
		}
		st.N++
		st.DurUS += dur
		st.SelfUS += self
		st.CPUUS += float64(sp.CPU) / 1e3
		root := int32(i)
		for t.spans[root].Parent >= 0 {
			root = t.spans[root].Parent
		}
		route, ok := strings.CutPrefix(t.spans[root].Name, "http ")
		if !ok {
			continue
		}
		ra := a.Routes[route]
		if ra == nil {
			ra = &routeAgg{SelfUS: map[string]float64{}}
			a.Routes[route] = ra
		}
		layer := sp.Name
		if int32(i) == root {
			layer = "core"
			ra.N++
			ra.ServerUS += dur
			if sp.Req != "" {
				a.Server[sp.Req] = dur
			}
		}
		ra.SelfUS[layer] += self
	}
	return a
}

// dump writes every span as one JSON line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid reads the calling goroutine's id from its stack header
// ("goroutine 123 [running]:"). Only traced runs pay for it.
func goid() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// threadCPU is the calling thread's CPU time in ns; callers pin the
// goroutine with runtime.LockOSThread around the measured call.
func threadCPU() int64 {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// processUsage reads this process's user+system CPU and peak RSS.
func processUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	us := func(tv syscall.Timeval) float64 { return float64(tv.Sec)*1e6 + float64(tv.Usec) }
	return usage{CPUUS: us(ru.Utime) + us(ru.Stime), MaxRSSMiB: float64(ru.Maxrss) / 1024}
}
