package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"gpunion/internal/agent"
	"gpunion/internal/api"
	"gpunion/internal/checkpoint"
	"gpunion/internal/config"
	"gpunion/internal/core"
	"gpunion/internal/db"
	"gpunion/internal/eventbus"
	"gpunion/internal/invariant"
	"gpunion/internal/scheduler"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
	"gpunion/internal/wal"
)

// reqHeader carries the generator's request id in traced runs, so the
// coordinator's spans join the client-seen latency of the same request.
const reqHeader = "X-Bench-Req"

type helloMsg struct {
	Addr string `json:"addr"`
}

// usage is a process's CPU and peak memory at one instant.
type usage struct {
	CPUUS     float64 `json:"cpu_us"`
	MaxRSSMiB float64 `json:"max_rss_mib"`
}

// coordWindow is what the coordinator process measured between mark
// and the gate, traced runs only.
type coordWindow struct {
	Trace          traceAgg `json:"trace"`
	WALBytes       int64    `json:"wal_bytes"`
	SchedDecisions float64  `json:"sched_decisions"`
	SchedSeconds   float64  `json:"sched_seconds"`
	Placements     int64    `json:"placements"`
	Migrations     int64    `json:"migrations"`
	MigAttempts    int      `json:"mig_attempts"`
	MigSuccesses   int      `json:"mig_successes"`
}

type jobRow struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Node  string `json:"node"`
}

// gateReport is the coordinator side of the correctness gate.
type gateReport struct {
	LostAcked   []string `json:"lost_acked"`
	Equivalence []string `json:"equivalence"`
	PoolAudit   []string `json:"pool_audit"`
	PumpErrors  int64    `json:"pump_errors"`
	// PlacementViolations counts the Checker's alloc-open-unique and
	// alloc-matches-job findings: the double-launch race breaks them on
	// the unmodified coordinator, so they are reported, not gated.
	PlacementViolations int `json:"placement_violations"`
	// OtherViolations are the Checker's remaining findings (reported).
	OtherViolations []string     `json:"other_violations"`
	LagRecords      uint64       `json:"lag_records"`
	Jobs            []jobRow     `json:"jobs"`
	Window          *coordWindow `json:"window,omitempty"`
}

// coordProc is the system under test, composed as cmd/coordinator
// composes it with the config.Coordinator defaults, plus an in-process
// semi-synchronous standby fed from the WAL's OnDurable hook.
type coordProc struct {
	tr       *tracer // nil: untraced
	cfg      config.Coordinator
	dir      string
	store    *db.DB
	standby  *db.DB
	follower *wal.Follower
	shipper  *wal.Shipper
	mgr      *wal.Manager
	coord    *core.Coordinator
	srv      *http.Server

	pumpErrs   atomic.Int64
	walBytes   atomic.Int64
	placements atomic.Int64
	migrations atomic.Int64
	// window baselines, set by mark.
	base coordWindow
}

func runCoord(args []string) error {
	fs := flag.NewFlagSet("coord", flag.ContinueOnError)
	dir := fs.String("dir", "", "WAL directory")
	traced := fs.Bool("trace", false, "record spans")
	spans := fs.String("spans", "", "span dump file (traced)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p := &coordProc{dir: *dir}
	if *traced {
		p.tr = newTracer()
	}
	addr, err := p.start()
	if err != nil {
		return err
	}
	defer p.close()
	err = serveControl(helloMsg{Addr: addr}, func(cmd string) (any, error) {
		switch cmd {
		case "mark":
			p.mark()
			return processUsage(), nil
		case "usage":
			return processUsage(), nil
		case "gate":
			return p.gate(), nil
		}
		return nil, fmt.Errorf("unknown command %q", cmd)
	})
	if p.tr != nil && *spans != "" {
		if derr := p.tr.dump(*spans); derr != nil && err == nil {
			err = derr
		}
	}
	return err
}

func (p *coordProc) start() (string, error) {
	if err := p.cfg.Validate(); err != nil {
		return "", err
	}
	p.store = db.New(0)
	p.standby = db.New(0)
	p.follower = wal.NewFollower(p.standby)
	p.shipper = wal.NewShipper(p.dir)

	var store db.Store = p.store
	wcfg := wal.Config{
		GroupWindow:      p.cfg.WALGroupCommit(),
		SnapshotInterval: p.cfg.SnapshotInterval(),
		OnDurable:        p.ship,
	}
	var factory core.HandleFactory
	if p.tr != nil {
		store = &tracedStore{DB: p.store, tr: p.tr}
		wcfg.FS = &countFS{p: p}
		factory = func(addr string) core.AgentHandle {
			return tracedHandle{h: agent.NewClient(addr), tr: p.tr}
		}
	}
	mgr, err := wal.Open(p.dir, store, wcfg)
	if err != nil {
		return "", err
	}
	p.mgr = mgr
	secret := make([]byte, 32)
	if _, err := rand.Read(secret); err != nil {
		return "", err
	}
	bus := eventbus.New(4096)
	coord, err := core.New(core.Config{
		HeartbeatInterval: p.cfg.HeartbeatInterval(),
		MissedThreshold:   p.cfg.MissedThreshold,
		Strategy:          &scheduler.RoundRobin{},
		BatchSize:         p.cfg.SchedulerBatchSize,
		AuthSecret:        secret,
	}, simclock.Real(), store, checkpoint.NewStore(storage.NewMemStore(0)), bus)
	if err != nil {
		return "", err
	}
	p.coord = coord
	_ = mgr.Writer().Instrument(coord.Metrics())
	bus.SubscribeFunc(func(ev eventbus.Event) {
		if ev.Type == eventbus.JobScheduled {
			p.placements.Add(1)
		} else {
			p.migrations.Add(1)
		}
	}, eventbus.JobScheduled, eventbus.JobMigrated)

	handler := coord.Handler(factory)
	if p.tr != nil {
		next := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := p.tr.begin("http "+strings.TrimPrefix(r.URL.Path, "/v1/"), r.Header.Get(reqHeader))
			next.ServeHTTP(w, r)
			p.tr.end(id)
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	p.srv = &http.Server{Handler: handler}
	go func() { _ = p.srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

// ship is the semi-synchronous standby: the OnDurable hook pumps the
// leader's log into the standby before the mutation is acknowledged,
// as internal/sim/failover.go does.
func (p *coordProc) ship(db.Mutation) {
	if p.tr == nil {
		if err := p.follower.Pump(p.shipper); err != nil {
			p.pumpErrs.Add(1)
		}
		return
	}
	id := p.tr.begin("standby.ship", "")
	runtime.LockOSThread()
	c0 := threadCPU()
	err := p.follower.Pump(p.shipper)
	cpu := threadCPU() - c0
	runtime.UnlockOSThread()
	p.tr.endCPU(id, cpu)
	if err != nil {
		p.pumpErrs.Add(1)
	}
}

func (p *coordProc) window() coordWindow {
	h, _ := p.coord.Metrics().Histogram("gpunion_scheduling_latency_seconds", "", nil, nil)
	st := p.coord.Migration().Stats()
	w := coordWindow{
		WALBytes:       p.walBytes.Load(),
		SchedDecisions: float64(h.Count()),
		SchedSeconds:   h.Sum(),
		Placements:     p.placements.Load(),
		Migrations:     p.migrations.Load(),
	}
	for _, n := range st.Attempts {
		w.MigAttempts += n
	}
	for _, n := range st.Successes {
		w.MigSuccesses += n
	}
	return w
}

// mark opens the measured window.
func (p *coordProc) mark() {
	p.base = p.window()
	if p.tr != nil {
		p.tr.mark()
	}
}

// gate quiesces the stack and audits it. The generator has stopped
// sending and flushed the relays; one coalescer tick (a quarter
// interval) later every buffered beat is in the store. The audits wait
// until no mutation has committed for quietFor (observers such as the
// scheduler pool run after the commit), and a final pump brings the
// standby level with the log.
func (p *coordProc) gate() gateReport {
	const quietFor = 300 * time.Millisecond
	time.Sleep(p.cfg.HeartbeatInterval() / 4)
	for i, lsn := 0, p.store.CurrentLSN(); i < 20; i++ {
		time.Sleep(quietFor)
		now := p.store.CurrentLSN()
		if now == lsn {
			break
		}
		lsn = now
	}
	var rep gateReport
	if lead := p.store.CurrentLSN(); lead > p.follower.AppliedLSN() {
		rep.LagRecords = lead - p.follower.AppliedLSN()
	}
	if err := p.follower.Pump(p.shipper); err != nil {
		p.pumpErrs.Add(1)
	}
	leader := p.store.ExportState()
	for _, v := range invariant.CheckNoLostAcked(leader, p.standby.ExportState()) {
		rep.LostAcked = append(rep.LostAcked, v.String())
	}
	recovered := db.New(0)
	if _, err := wal.Recover(p.dir, recovered); err != nil {
		rep.Equivalence = append(rep.Equivalence, "recover: "+err.Error())
	} else {
		for _, v := range invariant.CheckEquivalence(leader, recovered.ExportState()) {
			rep.Equivalence = append(rep.Equivalence, v.String())
		}
	}
	rep.PoolAudit = p.coord.AuditSchedulerPool()
	rep.PumpErrors = p.pumpErrs.Load()
	for _, v := range invariant.NewChecker().Check(p.store) {
		if v.Rule == "alloc-open-unique" || v.Rule == "alloc-matches-job" {
			rep.PlacementViolations++
		} else {
			rep.OtherViolations = append(rep.OtherViolations, v.String())
		}
	}
	for _, j := range leader.Jobs {
		rep.Jobs = append(rep.Jobs, jobRow{ID: j.ID, State: string(j.State), Node: j.NodeID})
	}
	if p.tr != nil {
		w := p.window()
		w.Trace = p.tr.aggregate()
		w.WALBytes -= p.base.WALBytes
		w.SchedDecisions -= p.base.SchedDecisions
		w.SchedSeconds -= p.base.SchedSeconds
		w.Placements -= p.base.Placements
		w.Migrations -= p.base.Migrations
		w.MigAttempts -= p.base.MigAttempts
		w.MigSuccesses -= p.base.MigSuccesses
		rep.Window = &w
	}
	return rep
}

func (p *coordProc) close() {
	p.coord.Stop()
	_ = p.srv.Close()
	if err := p.mgr.Close(); err != nil {
		fmt.Fprintln(errOut, "coordinator: closing WAL:", err)
	}
}

// tracedStore is the db layer's seam: the real store, with every call
// the coordinator makes timed. SetMutationHook times the durable hook
// wal.Open installs (the WAL layer, standby included).
type tracedStore struct {
	*db.DB
	tr *tracer
}

func (s *tracedStore) span(name string) func() {
	id := s.tr.begin(name, "")
	return func() { s.tr.end(id) }
}

func (s *tracedStore) SetMutationHook(h db.MutationHook) {
	if h == nil {
		s.DB.SetMutationHook(nil)
		return
	}
	s.DB.SetMutationHook(func(m db.Mutation) {
		defer s.span("wal.durable")()
		h(m)
	})
}

func (s *tracedStore) GetNode(id string) (db.NodeRecord, error) {
	defer s.span("db.read")()
	return s.DB.GetNode(id)
}

func (s *tracedStore) GetJob(id string) (db.JobRecord, error) {
	defer s.span("db.read")()
	return s.DB.GetJob(id)
}

// CountJobsInState(pending) opens every scheduling pass, so its count
// is the pass count.
func (s *tracedStore) CountJobsInState(st db.JobState) int {
	name := "db.read"
	if st == db.JobPending {
		name = "db.pending_count"
	}
	defer s.span(name)()
	return s.DB.CountJobsInState(st)
}

func (s *tracedStore) JobsInState(st db.JobState) []db.JobRecord {
	defer s.span("db.read")()
	return s.DB.JobsInState(st)
}

func (s *tracedStore) JobsOnNode(id string) []db.JobRecord {
	defer s.span("db.read")()
	return s.DB.JobsOnNode(id)
}

func (s *tracedStore) SamplesInRange(metric, node string, from, to time.Time) []db.Sample {
	defer s.span("db.read")()
	return s.DB.SamplesInRange(metric, node, from, to)
}

func (s *tracedStore) Allocations() []db.AllocationRecord {
	defer s.span("db.read")()
	return s.DB.Allocations()
}

func (s *tracedStore) ListNodes() []db.NodeRecord {
	defer s.span("db.scan")()
	return s.DB.ListNodes()
}

func (s *tracedStore) ListJobs() []db.JobRecord {
	defer s.span("db.scan")()
	return s.DB.ListJobs()
}

func (s *tracedStore) ActiveNodes() []db.NodeRecord {
	defer s.span("db.scan")()
	return s.DB.ActiveNodes()
}

func (s *tracedStore) UpsertNode(n db.NodeRecord) {
	defer s.span("db.write")()
	s.DB.UpsertNode(n)
}

func (s *tracedStore) UpdateNode(id string, fn func(*db.NodeRecord)) error {
	defer s.span("db.write")()
	return s.DB.UpdateNode(id, fn)
}

func (s *tracedStore) TouchNodes(beats []db.BeatDelta) int {
	defer s.span("db.write")()
	return s.DB.TouchNodes(beats)
}

func (s *tracedStore) InsertJob(j db.JobRecord) error {
	defer s.span("db.write")()
	return s.DB.InsertJob(j)
}

func (s *tracedStore) UpdateJob(id string, fn func(*db.JobRecord)) error {
	defer s.span("db.write")()
	return s.DB.UpdateJob(id, fn)
}

func (s *tracedStore) RecordAllocation(a db.AllocationRecord) {
	defer s.span("db.write")()
	s.DB.RecordAllocation(a)
}

func (s *tracedStore) CloseAllocation(id string, end time.Time) error {
	defer s.span("db.write")()
	return s.DB.CloseAllocation(id, end)
}

func (s *tracedStore) CloseAllocationEpisode(id, node, dev string, end time.Time) error {
	defer s.span("db.write")()
	return s.DB.CloseAllocationEpisode(id, node, dev, end)
}

func (s *tracedStore) AppendSample(smp db.Sample) {
	defer s.span("db.write")()
	s.DB.AppendSample(smp)
}

// countFS is the WAL's file seam: it counts bytes written and times
// every fsync (on the writer's sync goroutine, so unparented).
type countFS struct{ p *coordProc }

func (f *countFS) OpenAppend(name string) (wal.File, error) {
	file, err := wal.OSFS{}.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: file, p: f.p}, nil
}

type countFile struct {
	wal.File
	p *coordProc
}

func (c *countFile) Write(b []byte) (int, error) {
	n, err := c.File.Write(b)
	c.p.walBytes.Add(int64(n))
	return n, err
}

func (c *countFile) Sync() error {
	id := c.p.tr.begin("wal.fsync", "")
	defer c.p.tr.end(id)
	return c.File.Sync()
}

// tracedHandle is the agent layer's seam: the coordinator's HTTP
// handle to one synthetic agent, timed.
type tracedHandle struct {
	h  core.AgentHandle
	tr *tracer
}

func (t tracedHandle) Launch(req api.LaunchRequest) (api.LaunchResponse, error) {
	id := t.tr.begin("launch.rpc", "")
	defer t.tr.end(id)
	return t.h.Launch(req)
}

func (t tracedHandle) Kill(req api.KillRequest) error {
	id := t.tr.begin("kill.rpc", "")
	defer t.tr.end(id)
	return t.h.Kill(req)
}

func (t tracedHandle) Checkpoint(job string, incremental bool) (api.CheckpointResponse, error) {
	id := t.tr.begin("checkpoint.rpc", "")
	defer t.tr.end(id)
	return t.h.Checkpoint(job, incremental)
}
