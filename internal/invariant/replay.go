package invariant

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"gpunion/internal/db"
	"gpunion/internal/monitor"
)

// Replay audit: the committed mutation stream, replayed through the
// store's own Apply over the image the store held when recording
// began, must land exactly on the live store. Any record the store
// committed without emitting (a lost beat advance), emitted without
// committing (a fabricated one), or emitted in a shape Apply cannot
// take shows up as a divergence — for every mutation type, with no
// per-type fold in this package. Three rules:
//
//   - replay-equivalence: the shadow's nodes, jobs and allocations
//     equal the live store's (CheckEquivalence's table comparison),
//     and every record applies;
//   - record-advances: a beat delta or health record targets a node
//     the shadow holds and moves it forward (LastHeartbeat or
//     HealthAt). The store only commits, and only logs, deltas that
//     advanced a record; a non-advancing one means a replay was
//     applied twice or a stale delta slipped through. Apply itself
//     stays forward-only and silent about it, because recovery from a
//     fuzzy snapshot replays records whose effect is already present;
//   - health-score-consistent: a health record's score is exactly
//     monitor.FoldHealth of the shadow's previous score over the
//     record's events. FoldHealth is deterministic and replay installs
//     the score verbatim, so any inequality — a double fold, a dropped
//     event batch, drift across recovery or promotion — is a platform
//     bug, not float noise.
//
// Monitoring samples are not recorded: their bounded retention evicts
// approximately across shards by design (see CheckEquivalence).

// ReplayAudit records a live store's committed mutation stream and
// replays it into a shadow store at each Check. Replay is incremental:
// each Check applies only the records delivered since the previous
// one, so a long run costs O(stream) in total, not per check.
type ReplayAudit struct {
	mu      sync.Mutex
	shadow  *db.DB
	pending []db.Mutation
}

// NewReplayAudit imports the store's current image into a shadow and
// subscribes to its mutation stream. Attach at a quiescent point: the
// base export and the subscription are not atomic, so a write racing
// the attach could be counted twice. The returned cancel detaches the
// subscription (call it before attaching a fresh audit to a successor
// store).
func NewReplayAudit(s db.Store) (*ReplayAudit, func()) {
	a := &ReplayAudit{shadow: db.New(0)}
	a.shadow.ImportState(s.ExportState())
	return a, s.AddMutationObserver(a.observe)
}

func (a *ReplayAudit) observe(m db.Mutation) {
	if m.Type == db.MutSamplePut {
		return
	}
	a.mu.Lock()
	a.pending = append(a.pending, m)
	a.mu.Unlock()
}

// Check replays the records delivered since the previous check and
// compares the shadow with the live store. Call at a quiescent point,
// like NodePool.Audit: observer deliveries race across shards, and
// only a quiescent point guarantees every committed record has
// arrived.
func (a *ReplayAudit) Check(s db.Store) []Violation {
	a.mu.Lock()
	defer a.mu.Unlock()
	vs := replay(a.shadow, a.pending)
	a.pending = a.pending[:0]
	return append(vs, compareReplay(a.shadow, tables(s))...)
}

// replay applies muts to the shadow in LSN order (sorting muts in
// place), checking the per-record rules against the shadow's state
// before each record. Observer deliveries race across shards; the LSN
// is the commit order, and records touching one node share its shard,
// so sorting makes every per-node subsequence causally ordered. Health
// records are refolded with the default parameters, the only ones the
// coordinator folds with.
func replay(shadow *db.DB, muts []db.Mutation) []Violation {
	sort.SliceStable(muts, func(i, j int) bool { return muts[i].LSN < muts[j].LSN })
	var vs []Violation
	apply := func(m db.Mutation) {
		if err := shadow.Apply(m); err != nil {
			vs = append(vs, Violation{
				Rule:   "replay-equivalence",
				Detail: fmt.Sprintf("record at LSN %d does not replay: %v", m.LSN, err),
			})
		}
	}
	for _, m := range muts {
		switch {
		case m.Type == db.MutBeat && len(m.Beats) > 0:
			// Delta by delta: one record may advance a node twice.
			for i, b := range m.Beats {
				n, err := shadow.GetNode(b.NodeID)
				if v, bad := advanceViolation(m.LSN, "beat delta", b.NodeID, b.At, n.LastHeartbeat, err); bad {
					vs = append(vs, v)
					continue
				}
				apply(db.Mutation{LSN: m.LSN, Type: db.MutBeat, Beats: m.Beats[i : i+1]})
			}
			continue
		case m.Type == db.MutNodeHealth && m.Health != nil:
			h := m.Health
			n, err := shadow.GetNode(h.NodeID)
			if v, bad := advanceViolation(m.LSN, "health record", h.NodeID, h.At, n.HealthAt, err); bad {
				vs = append(vs, v)
				continue
			}
			// Empty events are legitimate: the sweep's decay records.
			want := monitor.FoldHealth(n.Health, n.HealthAt, h.At, h.Events, monitor.DefaultHealthParams())
			if want != h.Score {
				vs = append(vs, Violation{
					Rule: "health-score-consistent",
					Detail: fmt.Sprintf("health record at LSN %d for node %s carries score %v, refolding its %d events yields %v",
						m.LSN, h.NodeID, h.Score, len(h.Events), want),
				})
			}
		}
		apply(m)
	}
	return vs
}

// advanceViolation reports a beat or health record that targets a node
// the shadow does not hold (lookup error) or does not move it past
// prev.
func advanceViolation(lsn uint64, what, nodeID string, at, prev time.Time, lookup error) (Violation, bool) {
	switch {
	case lookup != nil:
		return Violation{
			Rule:   "record-advances",
			Detail: fmt.Sprintf("%s at LSN %d targets node %s with no installed image", what, lsn, nodeID),
		}, true
	case !at.After(prev):
		return Violation{
			Rule: "record-advances",
			Detail: fmt.Sprintf("%s at LSN %d does not advance node %s (%s after %s)",
				what, lsn, nodeID, at.Format(time.RFC3339Nano), prev.Format(time.RFC3339Nano)),
		}, true
	}
	return Violation{}, false
}

// compareReplay compares the shadow with the live image table by table.
func compareReplay(shadow *db.DB, live db.State) []Violation {
	return compareTables("replay-equivalence", "from the replayed stream", tables(shadow), live)
}

// tables reads the compared tables in ExportState's order without
// exporting (and sorting) the monitoring samples, which no comparison
// reads.
func tables(s db.Store) db.State {
	return db.State{Nodes: s.ListNodes(), Jobs: s.ListJobs(), Allocations: s.Allocations()}
}
