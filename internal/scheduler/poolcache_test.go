package scheduler

import (
	"fmt"
	"testing"
	"time"

	"gpunion/internal/db"
	"gpunion/internal/gpu"
)

// poolStore seeds a sharded store with n single-GPU nodes.
func poolStore(t *testing.T, n int) *db.DB {
	t.Helper()
	store := db.New(0)
	for i := 0; i < n; i++ {
		store.UpsertNode(db.NodeRecord{
			ID: fmt.Sprintf("n%02d", i), Status: db.NodeActive,
			GPUs:         []db.GPUInfo{{DeviceID: "gpu0", MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}},
			RegisteredAt: now.Add(-24 * time.Hour),
		})
	}
	return store
}

// TestNodePoolTracksStore: with the observer attached, the pool stays
// byte-equivalent to the store through upserts, updates and device
// flips, without any Reset.
func TestNodePoolTracksStore(t *testing.T) {
	store := poolStore(t, 6)
	s := New(nil, DefaultReliability())
	pool := s.NewNodePool()
	cancel := store.AddMutationObserver(pool.Observe)
	defer cancel()
	pool.Reset(store)

	if probs := pool.Audit(store); len(probs) != 0 {
		t.Fatalf("pool dirty after reset: %v", probs)
	}
	_ = store.UpdateNode("n02", func(n *db.NodeRecord) { n.GPUs[0].Allocated = true })
	_ = store.UpdateNode("n03", func(n *db.NodeRecord) { n.Status = db.NodePaused })
	store.UpsertNode(db.NodeRecord{
		ID: "n99", Status: db.NodeActive,
		GPUs: []db.GPUInfo{{DeviceID: "gpu0", MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}},
	})
	if probs := pool.Audit(store); len(probs) != 0 {
		t.Fatalf("pool lost a mutation: %v", probs)
	}

	// The allocated device and the paused node must have left the
	// candidate set; the new node must have joined it.
	entries := pool.snapshot(now)
	byNode := make(map[string]bool)
	for _, e := range entries {
		byNode[e.node.ID] = true
	}
	if byNode["n02"] || byNode["n03"] || !byNode["n99"] {
		t.Fatalf("candidate nodes = %v", byNode)
	}
}

// TestNodePoolDetectsDrift: without the observer feed the pool falls
// behind the store, and Audit must say so — the chaos harness's
// scheduler-pool-consistent rule depends on it.
func TestNodePoolDetectsDrift(t *testing.T) {
	store := poolStore(t, 3)
	s := New(nil, DefaultReliability())
	pool := s.NewNodePool()
	pool.Reset(store)
	if probs := pool.Audit(store); len(probs) != 0 {
		t.Fatalf("pool dirty after reset: %v", probs)
	}
	_ = store.UpdateNode("n01", func(n *db.NodeRecord) { n.Status = db.NodeDeparted })
	if probs := pool.Audit(store); len(probs) == 0 {
		t.Fatal("unobserved mutation went undetected")
	}
	// Reset is the recovery rule for derived state: it reconciles.
	pool.Reset(store)
	if probs := pool.Audit(store); len(probs) != 0 {
		t.Fatalf("pool dirty after reconciling reset: %v", probs)
	}
}

// TestNodePoolRebuildOnImport: ImportState bypasses the mutation
// stream; Reset (the coordinator's recovery rule) rebuilds the pool to
// match the imported image.
func TestNodePoolRebuildOnImport(t *testing.T) {
	store := poolStore(t, 4)
	s := New(nil, DefaultReliability())
	pool := s.NewNodePool()
	cancel := store.AddMutationObserver(pool.Observe)
	defer cancel()
	pool.Reset(store)

	st := store.ExportState()
	store2 := db.New(0)
	store2.ImportState(st)
	pool.Reset(store2)
	if probs := pool.Audit(store2); len(probs) != 0 {
		t.Fatalf("pool dirty after recovery reset: %v", probs)
	}
}

// TestPlaceBatchPooledMatchesPlaceBatch: the cached pool must yield the
// same placements as a fresh store scan, for every strategy.
func TestPlaceBatchPooledMatchesPlaceBatch(t *testing.T) {
	for _, strat := range []func() Strategy{
		func() Strategy { return &RoundRobin{} },
		func() Strategy { return BestFit{} },
		func() Strategy { return LeastLoaded{} },
	} {
		store := poolStore(t, 8)
		_ = store.UpdateNode("n04", func(n *db.NodeRecord) { n.GPUs[0].Allocated = true })

		pooled := New(strat(), DefaultReliability())
		pool := pooled.NewNodePool()
		cancel := store.AddMutationObserver(pool.Observe)
		pool.Reset(store)
		fresh := New(strat(), DefaultReliability())

		reqs := make([]Request, 5)
		for i := range reqs {
			reqs[i] = Request{JobID: fmt.Sprintf("j%d", i), GPUMemMiB: 8192,
				Capability: gpu.ComputeCapability{Major: 7, Minor: 0}}
		}
		got := pooled.PlaceBatchPooled(reqs, pool, now)
		want := fresh.PlaceBatch(reqs, store.ListNodes(), now)
		for i := range want {
			if (got[i].Err == nil) != (want[i].Err == nil) ||
				got[i].Placement.NodeID != want[i].Placement.NodeID ||
				got[i].Placement.DeviceID != want[i].Placement.DeviceID {
				t.Fatalf("%s member %d: pooled %+v vs fresh %+v",
					pooled.StrategyName(), i, got[i].Placement, want[i].Placement)
			}
		}
		cancel()
	}
}

// TestNodePoolSnapshotCaches: an unchanged pool serves the same entry
// slice without rebuilding; any mutation invalidates it.
func TestNodePoolSnapshotCaches(t *testing.T) {
	store := poolStore(t, 4)
	s := New(nil, DefaultReliability())
	pool := s.NewNodePool()
	cancel := store.AddMutationObserver(pool.Observe)
	defer cancel()
	pool.Reset(store)

	a := pool.snapshot(now)
	b := pool.snapshot(now)
	if &a[0] != &b[0] {
		t.Fatal("clean snapshot rebuilt the entry set")
	}
	gen := pool.Generation()
	_ = store.UpdateNode("n00", func(n *db.NodeRecord) { n.GPUs[0].Allocated = true })
	if pool.Generation() == gen {
		t.Fatal("mutation did not bump the pool generation")
	}
	c := pool.snapshot(now)
	if len(c) != len(a)-1 {
		t.Fatalf("entries after allocation = %d, want %d", len(c), len(a)-1)
	}
}

// TestNodePoolDeliveryOrderIrrelevant: observer deliveries race across
// goroutines, so the pool may see a node's newer record before an
// older one. An UpdateNode that allocates a GPU, followed by a beat or
// a health fold on the same node, is handed to Observe newest first:
// the pool must still end on the store's record and stop offering the
// allocated device.
func TestNodePoolDeliveryOrderIrrelevant(t *testing.T) {
	for _, tc := range []struct {
		name   string
		follow func(*db.DB)
	}{
		{"beat", func(s *db.DB) {
			s.TouchNodes([]db.BeatDelta{{NodeID: "n02", At: now.Add(time.Minute)}})
		}},
		{"health", func(s *db.DB) {
			s.RecordHealth("n02", now.Add(time.Minute), nil,
				func(float64, time.Time) float64 { return 1 })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := poolStore(t, 4)
			pool := New(nil, DefaultReliability()).NewNodePool()
			var held []db.Mutation
			cancel := store.AddMutationObserver(func(m db.Mutation) { held = append(held, m) })
			defer cancel()
			pool.Reset(store)
			_ = pool.snapshot(now)

			if err := store.UpdateNode("n02", func(n *db.NodeRecord) { n.GPUs[0].Allocated = true }); err != nil {
				t.Fatal(err)
			}
			tc.follow(store)
			if len(held) != 2 {
				t.Fatalf("held %d deliveries, want 2", len(held))
			}
			for i := len(held) - 1; i >= 0; i-- {
				pool.Observe(held[i])
			}
			for _, e := range pool.snapshot(now) {
				if e.node.ID == "n02" {
					t.Fatalf("allocated device %s/%s still offered", e.node.ID, e.device.DeviceID)
				}
			}
			if probs := pool.Audit(store); len(probs) != 0 {
				t.Fatalf("pool diverged: %v", probs)
			}
		})
	}
}
