package scheduler

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"gpunion/internal/db"
	"gpunion/internal/monitor"
)

// NodePool is the scheduler's incremental view of schedulable capacity:
// every registered node's latest record, the free devices it offers,
// and a reliability score memoized per node generation. It subscribes
// to the store's typed-mutation stream (db.Store.AddMutationObserver),
// but only to learn which nodes changed: Observe marks them stale, and
// the next snapshot re-reads exactly those nodes from the store, so a
// batch cycle reuses the cached candidate entries instead of re-copying
// every NodeRecord — GPU slices included — from the store. The store
// stays the only interpreter of mutation payloads, and the order in
// which observer deliveries arrive does not matter.
//
// The pool is derived state, like the store's own indexes: it emits
// nothing to the WAL, and after recovery (ImportState does not flow
// through the mutation stream) it must be rebuilt with Reset. Audit
// verifies pool ↔ store equivalence; the chaos harness runs it at
// every audit point.
type NodePool struct {
	model ReliabilityModel

	mu sync.Mutex
	// store is the store the pool was last Reset from; stale nodes
	// are re-read from it.
	store db.Store
	nodes map[string]*poolNode
	ids   []string // sorted node IDs, so snapshots are deterministic
	// stale holds the nodes a mutation touched since the last
	// snapshot re-read them.
	stale map[string]bool
	// entries is the assembled candidate set served to PlaceBatchPooled;
	// rebuilt after any invalidation.
	entries []poolEntry
	dirty   bool
	gen     uint64
	// hits / misses count snapshot calls served from the cached entry
	// set vs rebuilds forced by an invalidation — the cache-efficiency
	// numbers PoolStats exposes to the metrics layer.
	hits   uint64
	misses uint64
}

// PoolStats is a point-in-time read of the pool cache's effectiveness.
type PoolStats struct {
	// Hits counts batch cycles served from the cached candidate set;
	// Misses counts cycles that had to rebuild it.
	Hits, Misses uint64
}

// poolNode caches one node's record and its memoized prediction.
type poolNode struct {
	rec   *db.NodeRecord // immutable (store records are copy-on-write)
	rel   float64
	relOK bool
}

// NewNodePool creates a pool sharing this scheduler's reliability
// model, so memoized scores match what Schedule would compute.
func (s *Scheduler) NewNodePool() *NodePool {
	return &NodePool{model: s.model, nodes: make(map[string]*poolNode),
		stale: make(map[string]bool), dirty: true}
}

// Observe is the db.MutationHook feed: it marks every node a committed
// record touches stale and interprets nothing else.
func (p *NodePool) Observe(m db.Mutation) {
	if m.Type != db.MutNodePut && m.Type != db.MutBeat && m.Type != db.MutNodeHealth {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case m.Node != nil:
		p.stale[m.Node.ID] = true
	case m.Health != nil:
		p.stale[m.Health.NodeID] = true
	}
	for _, b := range m.Beats {
		p.stale[b.NodeID] = true
	}
	p.dirty = true
	p.gen++
}

// Reset rebuilds the pool from a full store scan — the recovery path
// (ImportState bypasses the mutation stream) and the initial fill —
// and makes store the one stale nodes are re-read from. A mutation
// racing the scan is harmless: its delivery marks the node stale
// again, and the next snapshot reads the store's current record.
func (p *NodePool) Reset(store db.Store) {
	p.mu.Lock()
	defer p.mu.Unlock()
	recs := store.ListNodes()
	p.store = store
	p.nodes = make(map[string]*poolNode, len(recs))
	p.ids = p.ids[:0]
	clear(p.stale)
	for i := range recs {
		p.nodes[recs[i].ID] = &poolNode{rec: &recs[i]}
		p.ids = append(p.ids, recs[i].ID)
	}
	p.dirty = true
	p.gen++
}

// refresh re-reads every stale node from the store; callers hold p.mu.
// A node the store no longer holds leaves the pool.
func (p *NodePool) refresh() {
	for id := range p.stale {
		rec, err := p.store.GetNode(id)
		pn := p.nodes[id]
		switch {
		case err != nil:
			if pn != nil {
				delete(p.nodes, id)
				i := sort.SearchStrings(p.ids, id)
				p.ids = slices.Delete(p.ids, i, i+1)
			}
		case pn == nil:
			p.nodes[id] = &poolNode{rec: &rec}
			i := sort.SearchStrings(p.ids, id)
			p.ids = slices.Insert(p.ids, i, id)
		default:
			pn.rec, pn.relOK = &rec, false
		}
	}
	clear(p.stale)
}

// Stats reports cumulative snapshot cache hits and misses.
func (p *NodePool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Hits: p.hits, Misses: p.misses}
}

// Generation counts invalidations (diagnostics and tests).
func (p *NodePool) Generation() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gen
}

// snapshot returns the current candidate entries, rebuilding them only
// if a mutation invalidated the cache since the last batch; a rebuild
// first re-reads the stale nodes from the store. The returned slice is
// immutable — a later rebuild installs a fresh one — so callers may
// keep using it after the lock drops. Reliability is recomputed only
// for nodes whose record was re-read; the memoized score
// keeps the `now` of its node's last invalidation, which is the
// per-node-generation staleness PlaceBatchPooled accepts.
func (p *NodePool) snapshot(now time.Time) []poolEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.dirty {
		p.hits++
		return p.entries
	}
	p.misses++
	p.refresh()
	entries := make([]poolEntry, 0, len(p.entries))
	for _, id := range p.ids {
		pn := p.nodes[id]
		if pn.rec.Status != db.NodeActive {
			continue
		}
		if pn.rec.HealthScore() < monitor.UnhealthyBelow {
			continue // being drained; see Scheduler.buildPool
		}
		if !pn.relOK {
			pn.rel = p.model.Predict(*pn.rec, now)
			pn.relOK = true
		}
		for j := range pn.rec.GPUs {
			if pn.rec.GPUs[j].Allocated {
				continue
			}
			entries = append(entries, poolEntry{node: pn.rec, device: &pn.rec.GPUs[j], reliability: pn.rel})
		}
	}
	p.entries = entries
	p.dirty = false
	return entries
}

// Audit compares the pool's cached records against a fresh store scan
// and returns the discrepancies. Nodes marked stale are skipped: the
// next snapshot re-reads them. Call it at a quiescent point: the pool
// is maintained outside the store's shard locks, so mid-mutation reads
// are transiently behind by design.
func (p *NodePool) Audit(store db.Store) []string {
	truth := store.ListNodes()
	p.mu.Lock()
	defer p.mu.Unlock()
	var probs []string
	seen := make(map[string]bool, len(truth))
	for i := range truth {
		rec := &truth[i]
		seen[rec.ID] = true
		if p.stale[rec.ID] {
			continue
		}
		pn := p.nodes[rec.ID]
		if pn == nil {
			probs = append(probs, fmt.Sprintf("node %s registered but not cached", rec.ID))
			continue
		}
		want, err1 := json.Marshal(rec)
		got, err2 := json.Marshal(pn.rec)
		if err1 != nil || err2 != nil {
			probs = append(probs, fmt.Sprintf("node %s failed to encode: %v / %v", rec.ID, err1, err2))
			continue
		}
		if string(want) != string(got) {
			probs = append(probs, fmt.Sprintf("node %s cached image diverges from store", rec.ID))
		}
	}
	for id := range p.nodes {
		if !seen[id] && !p.stale[id] {
			probs = append(probs, fmt.Sprintf("node %s cached but not in store", id))
		}
	}
	return probs
}
