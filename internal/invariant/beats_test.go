package invariant

import (
	"testing"
	"time"

	"gpunion/internal/db"
)

// checkReplay runs the replay audit over a hand-built stream: base is
// the store image when recording began, muts the committed stream
// since then (in any order), live the store image now. Sabotage cases
// need it because a real store never emits the broken records.
func checkReplay(base db.State, muts []db.Mutation, live db.State) []Violation {
	shadow := db.New(0)
	shadow.ImportState(base)
	vs := replay(shadow, append([]db.Mutation(nil), muts...))
	return append(vs, compareReplay(shadow, live)...)
}

// beatState is a store image holding one node per (id, heartbeat) pair.
func beatState(beats ...db.BeatDelta) db.State {
	var st db.State
	for _, b := range beats {
		st.Nodes = append(st.Nodes, db.NodeRecord{ID: b.NodeID, LastHeartbeat: b.At})
	}
	return st
}

// TestBeatAuditLiveStore drives a real store through the replay audit:
// full images, coalesced beat batches and an interleaved UpdateNode
// must replay exactly onto the store's final state, across two checks
// (the second one replays incrementally).
func TestBeatAuditLiveStore(t *testing.T) {
	s := db.New(0)
	s.UpsertNode(db.NodeRecord{ID: "n1", Status: db.NodeActive, LastHeartbeat: t0})
	audit, cancel := NewReplayAudit(s)
	defer cancel()
	s.UpsertNode(db.NodeRecord{ID: "n2", Status: db.NodeActive, LastHeartbeat: t0})
	s.TouchNodes([]db.BeatDelta{
		{NodeID: "n1", At: t0.Add(10 * time.Second)},
		{NodeID: "n2", At: t0.Add(10 * time.Second)},
	})
	if vs := audit.Check(s); len(vs) != 0 {
		t.Fatalf("clean run flagged: %v", vs)
	}
	if err := s.UpdateNode("n1", func(n *db.NodeRecord) {
		n.LastHeartbeat = t0.Add(20 * time.Second)
		n.Status = db.NodePaused
	}); err != nil {
		t.Fatal(err)
	}
	// A stale batch: the store must drop the non-advancing delta and
	// log only the one that moved (n2), keeping the replay exact.
	s.TouchNodes([]db.BeatDelta{
		{NodeID: "n1", At: t0.Add(15 * time.Second)},
		{NodeID: "n2", At: t0.Add(25 * time.Second)},
	})
	mustInsert(t, s, db.JobRecord{ID: "j1", State: db.JobPending, ImageName: "img", SubmittedAt: t0})
	if vs := audit.Check(s); len(vs) != 0 {
		t.Fatalf("clean run flagged: %v", vs)
	}
}

// TestBeatDeltasLostAdvance sabotages the stream by dropping a delta
// the store committed: the replay lands behind the store and the
// comparison must fire.
func TestBeatDeltasLostAdvance(t *testing.T) {
	base := beatState(db.BeatDelta{NodeID: "n1", At: t0})
	live := beatState(db.BeatDelta{NodeID: "n1", At: t0.Add(time.Minute)})
	wantRule(t, checkReplay(base, nil, live), "replay-equivalence")
}

// TestBeatDeltasFabricatedAdvance sabotages the other direction: the
// stream carries an advance the store never applied.
func TestBeatDeltasFabricatedAdvance(t *testing.T) {
	base := beatState(db.BeatDelta{NodeID: "n1", At: t0})
	muts := []db.Mutation{{LSN: 1, Type: db.MutBeat,
		Beats: []db.BeatDelta{{NodeID: "n1", At: t0.Add(time.Minute)}}}}
	wantRule(t, checkReplay(base, muts, base), "replay-equivalence")
}

// TestBeatDeltasRecordDiscipline: a logged delta that does not advance
// the replayed timestamp means the store's kept-filter broke (a replay
// was applied twice, or a stale delta was committed). The final states
// agree, so only the per-record rule can see it.
func TestBeatDeltasRecordDiscipline(t *testing.T) {
	base := beatState(db.BeatDelta{NodeID: "n1", At: t0})
	at := t0.Add(time.Minute)
	muts := []db.Mutation{
		{LSN: 1, Type: db.MutBeat, Beats: []db.BeatDelta{{NodeID: "n1", At: at}}},
		{LSN: 2, Type: db.MutBeat, Beats: []db.BeatDelta{{NodeID: "n1", At: at}}},
	}
	live := beatState(db.BeatDelta{NodeID: "n1", At: at})
	vs := checkReplay(base, muts, live)
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly the double commit", vs)
	}
	wantRule(t, vs, "record-advances")
}

// TestBeatDeltasUnknownNode: a delta must never target a node the
// stream has not installed.
func TestBeatDeltasUnknownNode(t *testing.T) {
	muts := []db.Mutation{{LSN: 1, Type: db.MutBeat,
		Beats: []db.BeatDelta{{NodeID: "ghost", At: t0}}}}
	wantRule(t, checkReplay(db.State{}, muts, db.State{}), "record-advances")
}

// TestBeatDeltasEmptyRecord: an empty beat record is a malformed frame
// that Apply refuses.
func TestBeatDeltasEmptyRecord(t *testing.T) {
	muts := []db.Mutation{{LSN: 1, Type: db.MutBeat}}
	wantRule(t, checkReplay(db.State{}, muts, db.State{}), "replay-equivalence")
}

// TestBeatDeltasImageResets: a full after-image re-bases the replay —
// a later beat only needs to advance past the image, not past every
// earlier delta.
func TestBeatDeltasImageResets(t *testing.T) {
	base := beatState(db.BeatDelta{NodeID: "n1", At: t0.Add(time.Hour)})
	muts := []db.Mutation{
		{LSN: 6, Type: db.MutBeat, Beats: []db.BeatDelta{{NodeID: "n1", At: t0.Add(time.Second)}}},
		{LSN: 5, Type: db.MutNodePut, Node: &db.NodeRecord{ID: "n1", LastHeartbeat: t0}},
	}
	live := beatState(db.BeatDelta{NodeID: "n1", At: t0.Add(time.Second)})
	if vs := checkReplay(base, muts, live); len(vs) != 0 {
		t.Fatalf("re-based replay flagged: %v", vs)
	}
}

// TestReplayCatchesUnloggedJobWrite: the replay audit covers every
// table, not just heartbeats — a job the store holds but never
// emitted is a divergence with no job-specific code.
func TestReplayCatchesUnloggedJobWrite(t *testing.T) {
	live := db.State{Jobs: []db.JobRecord{{ID: "j1", State: db.JobPending}}}
	vs := checkReplay(db.State{}, nil, live)
	wantRule(t, vs, "replay-equivalence")
}

// TestReplayHealthRecordMustAdvance: a health record whose instant
// does not move HealthAt forward is a double fold, even though the
// store's forward-only Apply leaves the final state untouched.
func TestReplayHealthRecordMustAdvance(t *testing.T) {
	base := db.State{Nodes: []db.NodeRecord{{ID: "n1", Health: 0.5, HealthAt: t0}}}
	muts := []db.Mutation{{LSN: 1, Type: db.MutNodeHealth,
		Health: &db.HealthDelta{NodeID: "n1", Score: 0.5, At: t0}}}
	wantRule(t, checkReplay(base, muts, base), "record-advances")
}
