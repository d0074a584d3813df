package main

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/sim"
	training "gpunion/internal/workload"
)

// senders bounds the generator's concurrency: two sending goroutines,
// taking ops in due order, over at most two keep-alive connections per
// host, on a 2-CPU box.
const senders = 2

type opKind int

const (
	opRegister opKind = iota
	opBeat
	opSubmit
	opComplete
	opDepart
)

// op is one scheduled request; due is when an open-loop client would
// send it, and every latency counts from due.
type op struct {
	kind opKind
	due  time.Time
	seq  int // tie-break: equal due times keep insertion order
	node int
	key  int    // job key (submit, complete)
	tok  int    // copy token (complete)
	pick uint32 // departure pick
}

type opHeap []op

func (h opHeap) Len() int { return len(h) }
func (h opHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}
func (h opHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *opHeap) Push(x any)   { *h = append(*h, x.(op)) }
func (h *opHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// jobCopy is one execution of a job on a synthetic agent.
type jobCopy struct {
	tok       int
	dev       int
	start     time.Time
	remaining time.Duration
}

// gjob is the generator's ledger entry for one job.
type gjob struct {
	spec      jobSpec
	id        string // the coordinator's id, once known
	submitDue time.Time
	launched  bool
	remaining time.Duration
	copies    map[int]jobCopy // node -> live copy
	// completedFrom records every node that reported the job complete.
	completedFrom map[int]bool
	dup           bool
	// displacedDue is the departure that removed a copy of the job,
	// while the job waits for its relaunch.
	displacedDue time.Time
	displaced    bool
}

// gnode is one synthetic provider agent: its true device state is the
// source of every beat's RunningJobs and telemetry.
type gnode struct {
	idx     int
	id      string
	token   string
	seq     uint64
	beats   int
	present bool  // registered and not departed
	devs    []int // job key per device, 0 = free
	// refill queues completion due times on this node that wait for
	// the next Launch onto the freed device (closed loop).
	refill []time.Time
}

// sample groups one window's measurements.
type samples struct {
	beat, submit, relaunch, late []float64 // ms
	busy                         time.Duration
	attempted, failed            int
	failures                     map[string]int
	ops                          int
	launchCalls, killCalls       int
	launchedJobs, dupJobs        int
	departures, displaced        int
	relayBeats, fallbacks        int
	routeClient                  map[string][]float64 // route -> client µs (direct calls)
	routeE2E, routeLate          map[string][]float64 // route -> ms from due, ms late
	clientSeen                   map[string]float64   // request id -> client µs
}

func newSamples() samples {
	return samples{failures: map[string]int{}, routeClient: map[string][]float64{}, clientSeen: map[string]float64{},
		routeE2E: map[string][]float64{}, routeLate: map[string][]float64{}}
}

type generator struct {
	s        schedule
	traced   bool
	coordURL string
	relayURL string
	client   *http.Client
	agentURL string
	agentSrv *http.Server
	queue    chan op
	wg       sync.WaitGroup // senders
	pending  sync.WaitGroup // queued, unfinished ops
	wake     chan struct{}

	mu       sync.Mutex
	nodes    []*gnode
	jobs     map[int]*gjob
	byID     map[string]*gjob
	heap     opHeap
	seq      int
	nextTok  int
	resub    int
	reqSeq   int
	inWindow bool
	t0       time.Time
	res      samples
}

func newGenerator(s schedule, traced bool, coordURL, relayURL string) (*generator, error) {
	tr := &http.Transport{
		MaxConnsPerHost:     senders,
		MaxIdleConnsPerHost: senders,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	g := &generator{
		s: s, traced: traced, coordURL: coordURL, relayURL: relayURL,
		client: &http.Client{Transport: tr, Timeout: time.Minute},
		// Sized to hold a full window's backlog: the dispatcher never
		// blocks on a stalled coordinator, it only falls behind due.
		queue: make(chan op, 1<<16),
		wake:  make(chan struct{}, 1),
		jobs:  make(map[int]*gjob),
		byID:  make(map[string]*gjob),
		res:   newSamples(),
	}
	for i := 0; i < s.wl.nodes; i++ {
		g.nodes = append(g.nodes, &gnode{idx: i, id: fmt.Sprintf("node-%04d", i), devs: make([]int, s.wl.gpusPerNode)})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /a/{n}/v1/launch", g.launch)
	mux.HandleFunc("POST /a/{n}/v1/kill", g.kill)
	mux.HandleFunc("POST /a/{n}/v1/checkpoint", g.checkpoint)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	g.agentURL = "http://" + ln.Addr().String()
	g.agentSrv = &http.Server{Handler: mux}
	go func() { _ = g.agentSrv.Serve(ln) }()
	for i := 0; i < senders; i++ {
		g.wg.Add(1)
		go g.sender()
	}
	return g, nil
}

func (g *generator) close() {
	close(g.queue)
	g.wg.Wait()
	_ = g.agentSrv.Close()
	g.client.CloseIdleConnections()
}

func (g *generator) sender() {
	defer g.wg.Done()
	for o := range g.queue {
		g.run(o)
		g.pending.Done()
	}
}

// sendAll queues ops due now and waits for all of them (set-up).
func (g *generator) sendAll(ops []op) {
	now := time.Now()
	for _, o := range ops {
		o.due = now
		g.pending.Add(1)
		g.queue <- o
	}
	g.pending.Wait()
}

// setUp registers the fleet and pre-fills the job population; set-up
// is whole when every prefill submission has been answered (placement
// happens inside the submit call).
func (g *generator) setUp() error {
	var ops []op
	for i := range g.nodes {
		ops = append(ops, op{kind: opRegister, node: i})
	}
	g.sendAll(ops)
	ops = ops[:0]
	g.mu.Lock()
	for _, j := range g.s.prefill {
		g.jobs[j.key] = &gjob{spec: j}
		ops = append(ops, op{kind: opSubmit, key: j.key})
	}
	g.mu.Unlock()
	g.sendAll(ops)
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.res.failed > 0 {
		return fmt.Errorf("set-up failed: %v", g.res.failures)
	}
	return nil
}

// push schedules o; callers hold g.mu.
func (g *generator) push(o op) {
	g.seq++
	o.seq = g.seq
	heap.Push(&g.heap, o)
	select {
	case g.wake <- struct{}{}:
	default:
	}
}

// openWindow starts the measured window: every node's beat chain,
// arrivals, departures, and the prefilled jobs' completions.
func (g *generator) openWindow() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.t0 = time.Now()
	g.inWindow = true
	g.res = newSamples()
	for i := range g.nodes {
		g.push(op{kind: opBeat, node: i, due: g.t0.Add(g.s.phase[i])})
	}
	for _, a := range g.s.arrivals {
		g.jobs[a.job.key] = &gjob{spec: a.job}
		g.push(op{kind: opSubmit, key: a.job.key, due: g.t0.Add(a.at)})
	}
	for _, d := range g.s.departures {
		g.push(op{kind: opDepart, pick: d.pick, due: g.t0.Add(d.at)})
	}
	for _, j := range g.s.prefill {
		gj := g.jobs[j.key]
		for n, c := range gj.copies {
			c.start = g.t0
			c.remaining = time.Duration(j.residual * float64(j.dur))
			gj.copies[n] = c
			g.push(op{kind: opComplete, key: j.key, node: n, tok: c.tok, due: g.t0.Add(c.remaining)})
		}
	}
}

// dispatch hands due ops to the senders until stop; ops due later are
// never sent. It returns once every sent op has finished.
func (g *generator) dispatch(stop time.Time) {
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		now := time.Now()
		if !now.Before(stop) {
			break
		}
		g.mu.Lock()
		wait := stop.Sub(now)
		var due []op
		for len(g.heap) > 0 {
			top := g.heap[0]
			if top.due.After(now) {
				if d := top.due.Sub(now); d < wait {
					wait = d
				}
				break
			}
			heap.Pop(&g.heap)
			if top.kind == opBeat {
				g.push(op{kind: opBeat, node: top.node, due: top.due.Add(beatEvery)})
			}
			due = append(due, top)
		}
		g.mu.Unlock()
		for _, o := range due {
			g.pending.Add(1)
			g.queue <- o
		}
		// Reset discards a stale expiry (Go 1.23 timer semantics).
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-g.wake:
		}
	}
	g.pending.Wait()
	g.mu.Lock()
	g.inWindow = false
	g.mu.Unlock()
}

// post sends one JSON request and decodes a 2xx reply into out. It
// reports the client-seen time and, for coordinator routes, keeps it
// by route and request id.
func (g *generator) post(base, path, route string, body, out any) (int, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	var rid string
	if g.traced {
		g.mu.Lock()
		g.reqSeq++
		rid = strconv.Itoa(g.reqSeq)
		g.mu.Unlock()
		req.Header.Set(reqHeader, rid)
	}
	start := time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		g.account(start, route, rid)
		return 0, err
	}
	data, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	g.account(start, route, rid)
	if rerr != nil {
		return resp.StatusCode, rerr
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil && len(data) > 0 {
		return resp.StatusCode, json.Unmarshal(data, out)
	}
	return resp.StatusCode, nil
}

func (g *generator) account(start time.Time, route, rid string) {
	d := time.Since(start)
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.inWindow {
		return
	}
	g.res.busy += d
	if route != "" {
		us := float64(d.Nanoseconds()) / 1e3
		g.res.routeClient[route] = append(g.res.routeClient[route], us)
		if rid != "" {
			g.res.clientSeen[rid] = us
		}
	}
}

// finish records one window op's outcome; callers hold g.mu.
func (g *generator) finish(o op, start time.Time, failure string) float64 {
	ms := float64(time.Since(o.due).Nanoseconds()) / 1e6
	if !g.inWindow || o.due.Before(g.t0) {
		if failure != "" {
			g.res.failed++
			g.res.failures["setup "+failure]++
		}
		return ms
	}
	g.res.ops++
	g.res.attempted++
	late := float64(start.Sub(o.due).Nanoseconds()) / 1e6
	g.res.late = append(g.res.late, late)
	if r := routeOf(o.kind, g.relayURL != ""); r != "" {
		g.res.routeE2E[r] = append(g.res.routeE2E[r], ms)
		g.res.routeLate[r] = append(g.res.routeLate[r], late)
	}
	if failure == "" && ms > float64(beatEvery.Milliseconds()) {
		failure = "reply later than one interval"
	}
	if failure != "" {
		g.res.failed++
		g.res.failures[failure]++
	}
	return ms
}

// routeOf names the coordinator route an op calls ("" when beats go
// to a relay).
func routeOf(k opKind, relayed bool) string {
	switch k {
	case opRegister:
		return "register"
	case opBeat:
		if relayed {
			return ""
		}
		return "heartbeat"
	case opSubmit:
		return "jobs"
	case opComplete:
		return "jobupdate"
	case opDepart:
		return "depart"
	}
	return ""
}

func (g *generator) run(o op) {
	start := time.Now()
	switch o.kind {
	case opRegister:
		g.register(o, start)
	case opBeat:
		g.beat(o, start)
	case opSubmit:
		g.submit(o, start)
	case opComplete:
		g.complete(o, start)
	case opDepart:
		g.depart(o, start)
	}
}

func (g *generator) register(o op, start time.Time) {
	n := g.nodes[o.node]
	gpus := make([]db.GPUInfo, len(n.devs))
	for d := range gpus {
		gpus[d] = db.GPUInfo{
			DeviceID: fmt.Sprintf("gpu%d", d), Model: gpu.RTX3090.Model, Arch: string(gpu.RTX3090.Arch),
			MemoryMiB:       gpu.RTX3090.MemoryMiB,
			CapabilityMajor: gpu.RTX3090.Capability.Major, CapabilityMinor: gpu.RTX3090.Capability.Minor,
		}
	}
	var resp api.RegisterResponse
	_, err := g.post(g.coordURL, "/v1/register", "register", api.RegisterRequest{
		Envelope:  api.Envelope{ProtocolVersion: api.ProtocolVersion},
		MachineID: n.id, Addr: fmt.Sprintf("%s/a/%d", g.agentURL, n.idx),
		GPUs: gpus, Kernel: "5.15", StorageBytes: 1 << 40,
	}, &resp)
	g.mu.Lock()
	defer g.mu.Unlock()
	if err != nil {
		g.finish(o, start, "register: "+errClass(err))
		return
	}
	n.token, n.present = resp.Token, true
	g.finish(o, start, "")
}

func (g *generator) beat(o op, start time.Time) {
	g.mu.Lock()
	n := g.nodes[o.node]
	if !n.present {
		g.mu.Unlock()
		return
	}
	n.seq++
	n.beats++
	req := api.HeartbeatRequest{
		Envelope:  api.Envelope{ProtocolVersion: api.ProtocolVersion},
		MachineID: n.id, Token: n.token, BeatSeq: n.seq,
	}
	for _, key := range n.devs {
		if key != 0 {
			req.RunningJobs = append(req.RunningJobs, g.jobs[key].id)
		}
	}
	sort.Strings(req.RunningJobs)
	if (n.beats+n.idx)%telemetryEvery == 0 {
		for d, key := range n.devs {
			t := gpu.Telemetry{
				DeviceID: fmt.Sprintf("gpu%d", d), Model: gpu.RTX3090.Model,
				TotalMemMiB: gpu.RTX3090.MemoryMiB, TemperatureC: 40, PowerW: gpu.RTX3090.IdlePowerW,
			}
			if key != 0 {
				t.Allocated, t.Utilization, t.UsedMemMiB = true, 0.9, g.jobs[key].spec.memMiB
				t.TemperatureC, t.PowerW = 70, 300
			}
			req.Telemetry = append(req.Telemetry, t)
		}
	}
	relayed := g.relayURL != ""
	g.mu.Unlock()

	var resp api.HeartbeatResponse
	var err error
	fellBack := false
	if relayed {
		_, err = g.post(g.relayURL, fmt.Sprintf("/r/%d/heartbeat", n.idx/nodesPerRelay), "", req, &resp)
		if err != nil {
			// The relay is unavailable: beat direct, same beat and
			// sequence, as agent.SendBeat falls back.
			fellBack = true
			resp = api.HeartbeatResponse{}
		}
	}
	if !relayed || fellBack {
		_, err = g.post(g.coordURL, "/v1/heartbeat", "heartbeat", req, &resp)
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inWindow && relayed {
		g.res.relayBeats++
		if fellBack {
			g.res.fallbacks++
		}
	}
	failure := ""
	switch {
	case err != nil:
		failure = "heartbeat: " + errClass(err)
	case resp.Reregister:
		failure = "heartbeat: reregister"
		g.push(op{kind: opRegister, node: n.idx, due: time.Now()})
	case !resp.Acknowledged:
		failure = "heartbeat: not acknowledged"
	}
	ms := g.finish(o, start, failure)
	if failure == "" && g.inWindow {
		g.res.beat = append(g.res.beat, ms)
	}
}

func (g *generator) submit(o op, start time.Time) {
	g.mu.Lock()
	j := g.jobs[o.key]
	j.submitDue = o.due
	j.remaining = j.spec.dur
	if j.copies == nil {
		j.copies = map[int]jobCopy{}
		j.completedFrom = map[int]bool{}
	}
	spec := j.spec
	g.mu.Unlock()

	user := fmt.Sprintf("user-%02d", spec.key%20)
	var req api.SubmitJobRequest
	if spec.interactive {
		req = sim.SessionSubmission(user, training.Session{Duration: spec.dur, GPUMemMiB: spec.memMiB, AvgUtilization: 0.3})
	} else {
		req = sim.TrainingJobSubmission(user, spec.training, 10*time.Minute)
	}
	req.Envelope = api.Envelope{ProtocolVersion: api.ProtocolVersion}
	// The key lets the synthetic agent recognise the job in a Launch
	// that arrives before this submission's reply.
	req.Entrypoint = []string{"bench-job", strconv.Itoa(spec.key)}
	var resp api.SubmitJobResponse
	_, err := g.post(g.coordURL, "/v1/jobs", "jobs", req, &resp)
	g.mu.Lock()
	defer g.mu.Unlock()
	if err != nil {
		g.finish(o, start, "submit: "+errClass(err))
		return
	}
	j.id = resp.JobID
	g.byID[resp.JobID] = j
	g.finish(o, start, "")
}

func (g *generator) complete(o op, start time.Time) {
	g.mu.Lock()
	j := g.jobs[o.key]
	c, ok := j.copies[o.node]
	if !ok || c.tok != o.tok {
		g.mu.Unlock() // killed or displaced since: nothing to report
		return
	}
	n := g.nodes[o.node]
	delete(j.copies, o.node)
	n.devs[c.dev] = 0
	j.completedFrom[o.node] = true
	if g.s.wl.closed && g.inWindow && g.resub < len(g.s.resubmits) {
		n.refill = append(n.refill, o.due)
		next := g.s.resubmits[g.resub]
		g.resub++
		g.jobs[next.key] = &gjob{spec: next}
		g.push(op{kind: opSubmit, key: next.key, due: o.due})
	}
	req := api.JobUpdateRequest{
		Envelope:  api.Envelope{ProtocolVersion: api.ProtocolVersion},
		MachineID: n.id, Token: n.token, JobID: j.id, State: db.JobCompleted,
	}
	g.mu.Unlock()
	_, err := g.post(g.coordURL, "/v1/jobupdate", "jobupdate", req, nil)
	g.mu.Lock()
	defer g.mu.Unlock()
	failure := ""
	if err != nil {
		failure = "jobupdate: " + errClass(err)
	}
	g.finish(o, start, failure)
}

// depart takes the first busy, present provider at or after the
// seeded pick out of service: its jobs stop (the agent has
// checkpointed them), it stops beating, and it announces a temporary
// departure. It re-registers returnAfter later.
func (g *generator) depart(o op, start time.Time) {
	g.mu.Lock()
	var n *gnode
	for i := 0; i < len(g.nodes) && n == nil; i++ {
		c := g.nodes[(int(o.pick)+i)%len(g.nodes)]
		if !c.present {
			continue
		}
		for _, key := range c.devs {
			if key != 0 {
				n = c
				break
			}
		}
	}
	if n == nil {
		g.mu.Unlock()
		return
	}
	n.present = false
	now := time.Now()
	g.res.departures++
	var removed []*gjob
	for d, key := range n.devs {
		if key == 0 {
			continue
		}
		j := g.jobs[key]
		c := j.copies[n.idx]
		delete(j.copies, n.idx)
		n.devs[d] = 0
		j.remaining = max(c.remaining-now.Sub(c.start), time.Second)
		// Each displaced job's relaunch is an operation of its own,
		// failed when it takes longer than one interval. A job whose
		// duplicate copy lives on elsewhere may be relaunched (the
		// coordinator's record named this node) or not.
		j.displaced, j.displacedDue = true, o.due
		g.res.displaced++
		g.res.attempted++
		removed = append(removed, j)
	}
	g.push(op{kind: opRegister, node: n.idx, due: o.due.Add(returnAfter)})
	req := api.DepartRequest{
		Envelope:  api.Envelope{ProtocolVersion: api.ProtocolVersion},
		MachineID: n.id, Token: n.token, Reason: api.DepartTemporary,
	}
	g.mu.Unlock()
	_, err := g.post(g.coordURL, "/v1/depart", "depart", req, nil)
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, j := range removed {
		if j.displaced && len(j.copies) > 0 {
			// The departure took a duplicate copy and the coordinator
			// kept the job where it also runs: nothing to relaunch.
			j.displaced = false
		}
	}
	failure := ""
	if err != nil {
		failure = "depart: " + errClass(err)
	}
	g.finish(o, start, failure)
}

func (g *generator) nodeOf(w http.ResponseWriter, r *http.Request) *gnode {
	i, err := strconv.Atoi(r.PathValue("n"))
	if err != nil || i < 0 || i >= len(g.nodes) {
		writeErr(w, http.StatusNotFound, "unknown node")
		return nil
	}
	return g.nodes[i]
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(api.Error{Code: code, Message: msg})
}

// launch is the agent contract's Launch: it takes a free device that
// fits, acknowledges a duplicate for a job it already runs, and
// answers 409 when the node is full or gone.
func (g *generator) launch(w http.ResponseWriter, r *http.Request) {
	var req api.LaunchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	n := g.nodeOf(w, r)
	if n == nil {
		return
	}
	key := 0
	if len(req.Entrypoint) == 2 {
		key, _ = strconv.Atoi(req.Entrypoint[1])
	}
	now := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inWindow {
		g.res.launchCalls++
	}
	j := g.jobs[key]
	if j == nil || j.copies == nil {
		writeErr(w, http.StatusBadRequest, "unknown job "+req.JobID)
		return
	}
	if !n.present {
		writeErr(w, http.StatusConflict, "node departed")
		return
	}
	j.id = req.JobID
	g.byID[req.JobID] = j
	if c, ok := j.copies[n.idx]; ok {
		g.markDup(j)
		writeLaunch(w, req.JobID, c.dev)
		return
	}
	dev := -1
	for d, k := range n.devs {
		if k == 0 && req.GPUMemMiB <= gpu.RTX3090.MemoryMiB {
			dev = d
			break
		}
	}
	if dev < 0 {
		writeErr(w, http.StatusConflict, "no free device")
		return
	}
	if len(j.copies) > 0 {
		g.markDup(j)
	}
	g.nextTok++
	c := jobCopy{tok: g.nextTok, dev: dev, start: now, remaining: j.remaining}
	j.copies[n.idx] = c
	n.devs[dev] = key
	if g.inWindow {
		if !j.launched {
			// Every first Launch in the window counts from its
			// submission, even one made during set-up: on
			// queue-saturated that is the queue wait of the jobs that
			// reach the head while the window is open.
			g.res.launchedJobs++
			g.res.submit = append(g.res.submit, ms(now.Sub(j.submitDue)))
		}
		if j.displaced {
			g.res.relaunch = append(g.res.relaunch, ms(now.Sub(j.displacedDue)))
			if now.Sub(j.displacedDue) > beatEvery {
				g.res.failures["relaunch later than one interval"]++
				g.res.failed++
			}
		}
		if len(n.refill) > 0 {
			g.res.relaunch = append(g.res.relaunch, ms(now.Sub(n.refill[0])))
			n.refill = n.refill[1:]
		}
		g.push(op{kind: opComplete, key: key, node: n.idx, tok: c.tok, due: now.Add(c.remaining)})
	}
	j.launched, j.displaced = true, false
	writeLaunch(w, req.JobID, dev)
}

func (g *generator) markDup(j *gjob) {
	if g.inWindow && !j.dup {
		g.res.dupJobs++
	}
	j.dup = true
}

func writeLaunch(w http.ResponseWriter, id string, dev int) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(api.LaunchResponse{ContainerID: "ctr-" + id, DeviceID: fmt.Sprintf("gpu%d", dev)})
}

// kill frees the device and cancels the copy's pending completion.
func (g *generator) kill(w http.ResponseWriter, r *http.Request) {
	var req api.KillRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	n := g.nodeOf(w, r)
	if n == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inWindow {
		g.res.killCalls++
	}
	j := g.byID[req.JobID]
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown job")
		return
	}
	c, ok := j.copies[n.idx]
	if !ok {
		writeErr(w, http.StatusNotFound, "job not running here")
		return
	}
	delete(j.copies, n.idx)
	n.devs[c.dev] = 0
	if len(j.copies) == 0 {
		j.remaining = max(c.remaining-time.Since(c.start), time.Second)
	}
	w.WriteHeader(http.StatusNoContent)
}

// checkpoint acknowledges an on-demand checkpoint of a running job
// (migrate-back asks for one before it kills the job here).
func (g *generator) checkpoint(w http.ResponseWriter, r *http.Request) {
	var req api.CheckpointRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	n := g.nodeOf(w, r)
	if n == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	j := g.byID[req.JobID]
	if j == nil {
		writeErr(w, http.StatusConflict, "unknown job")
		return
	}
	if _, ok := j.copies[n.idx]; !ok {
		writeErr(w, http.StatusConflict, "job not running here")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(api.CheckpointResponse{Seq: 1})
}

// checkLedger compares the coordinator's job table with the ledger
// after quiescing and returns every disagreement.
func (g *generator) checkLedger(rows []jobRow) []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	var bad []string
	seen := make(map[string]bool, len(rows))
	for _, row := range rows {
		seen[row.ID] = true
		j := g.byID[row.ID]
		if j == nil {
			bad = append(bad, "coordinator holds a job the generator never saw: "+row.ID)
			continue
		}
		var node int
		if row.Node != "" {
			if _, err := fmt.Sscanf(row.Node, "node-%d", &node); err != nil || node >= len(g.nodes) {
				bad = append(bad, fmt.Sprintf("job %s on unknown node %q", row.ID, row.Node))
				continue
			}
		}
		switch db.JobState(row.State) {
		case db.JobRunning:
			if _, ok := j.copies[node]; ok {
				continue
			}
			where := ""
			if !g.nodes[node].present {
				// The launch was answered before the departure and
				// committed after it: the job waits for a provider
				// that is gone.
				where = " (provider departed)"
			}
			bad = append(bad, fmt.Sprintf("job %s running on %s per the coordinator, not on the agent%s", row.ID, row.Node, where))
		case db.JobCompleted:
			if !j.completedFrom[node] {
				bad = append(bad, fmt.Sprintf("job %s completed on %s, which never reported it", row.ID, row.Node))
			}
		case db.JobPending, db.JobMigrating:
		default:
			bad = append(bad, fmt.Sprintf("job %s in unexpected state %s", row.ID, row.State))
		}
	}
	for id, j := range g.byID {
		if !seen[id] {
			bad = append(bad, "job lost by the coordinator: "+id)
		}
		if j.displaced && len(j.copies) == 0 && !j.displacedDue.Before(g.t0) {
			g.res.failed++
			g.res.failures["displaced job never relaunched"]++
		}
	}
	sort.Strings(bad)
	return bad
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// errClass shortens an error for the failure tally.
func errClass(err error) string {
	s := err.Error()
	if len(s) > 80 {
		s = s[:80]
	}
	return s
}
