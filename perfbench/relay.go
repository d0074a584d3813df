package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"strconv"

	"gpunion/internal/aggregator"
	"gpunion/internal/api"
	"gpunion/internal/core"
	"gpunion/internal/simclock"
)

// relayStats is the relay host's window: the aggregators' own counters
// plus, traced, the spans around Heartbeat and the upstream forward.
type relayStats struct {
	Folded      uint64    `json:"folded"`
	Passthrough uint64    `json:"passthrough"`
	Forwards    uint64    `json:"forwards"`
	Trace       *traceAgg `json:"trace,omitempty"`
}

// relayProc hosts the rack relays in a process of their own, each an
// aggregator.Aggregator whose upstream is a core.Client over loopback,
// as cmd/aggregator runs one.
type relayProc struct {
	tr   *tracer
	aggs []*aggregator.Aggregator
	base relayStats
}

func runRelay(args []string) error {
	fs := flag.NewFlagSet("relay", flag.ContinueOnError)
	coordURL := fs.String("coord", "", "coordinator base URL")
	n := fs.Int("relays", 8, "relay count")
	traced := fs.Bool("trace", false, "record spans")
	spans := fs.String("spans", "", "span dump file (traced)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p := &relayProc{}
	if *traced {
		p.tr = newTracer()
	}
	for i := 0; i < *n; i++ {
		var up aggregator.Upstream = core.NewClient(*coordURL)
		if p.tr != nil {
			up = tracedUpstream{up: up, tr: p.tr}
		}
		p.aggs = append(p.aggs, aggregator.New(aggregator.Config{
			ID: fmt.Sprintf("rack-%02d", i), FlushInterval: relayFlush,
		}, simclock.Real(), up))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /r/{k}/heartbeat", p.heartbeat)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	defer func() {
		for _, g := range p.aggs {
			g.Stop()
		}
	}()
	err = serveControl(helloMsg{Addr: "http://" + ln.Addr().String()}, func(cmd string) (any, error) {
		switch cmd {
		case "mark":
			p.base = p.stats()
			if p.tr != nil {
				p.tr.mark()
			}
			return processUsage(), nil
		case "usage":
			return processUsage(), nil
		case "flush":
			for _, g := range p.aggs {
				if err := g.Flush(); err != nil {
					return nil, fmt.Errorf("flushing %s: %w", g.ID(), err)
				}
			}
			st := p.stats()
			st.Folded -= p.base.Folded
			st.Passthrough -= p.base.Passthrough
			st.Forwards -= p.base.Forwards
			if p.tr != nil {
				agg := p.tr.aggregate()
				st.Trace = &agg
			}
			return st, nil
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

func (p *relayProc) stats() relayStats {
	var st relayStats
	for _, g := range p.aggs {
		f, pt, fw, _ := g.Stats()
		st.Folded += f
		st.Passthrough += pt
		st.Forwards += fw
	}
	return st
}

// heartbeat serves one agent beat; any error answers 503 and the agent
// beats direct, as agent.SendBeat falls back.
func (p *relayProc) heartbeat(w http.ResponseWriter, r *http.Request) {
	k, err := strconv.Atoi(r.PathValue("k"))
	if err != nil || k < 0 || k >= len(p.aggs) {
		http.Error(w, "unknown relay", http.StatusNotFound)
		return
	}
	var req api.HeartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var id int32
	if p.tr != nil {
		id = p.tr.begin("relay.ingest", r.Header.Get(reqHeader))
	}
	resp, err := p.aggs[k].Heartbeat(req)
	if p.tr != nil {
		p.tr.end(id)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

type tracedUpstream struct {
	up aggregator.Upstream
	tr *tracer
}

func (t tracedUpstream) IngestAggregated(b api.AggregatedBeat) (api.AggregatedBeatResponse, error) {
	id := t.tr.begin("relay.forward", "")
	defer t.tr.end(id)
	return t.up.IngestAggregated(b)
}
