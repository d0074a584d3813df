package invariant

import (
	"fmt"
	"time"

	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/monitor"
)

// Gray-failure invariants. Three rules audit the health pipeline:
//
//   - health-score-consistent: every persisted health score is exactly
//     the deterministic fold of the events the mutation stream carries
//     — checked record by record during the replay audit (replay.go);
//   - no-placement-on-unhealthy: the scheduler never places new work on
//     a node whose health score sits below monitor.UnhealthyBelow;
//   - degraded-node-drained: a node that has been unhealthy for longer
//     than the drain grace holds no running jobs while a feasible free
//     device exists on a healthy node — predictive checkpoint-then-
//     migrate must actually move the work, not just stop new work.

// CheckNoPlacementOnUnhealthy audits that the scheduler honors the
// unhealthy exclusion: no running job was placed after its node's
// latest health fold while that node sits below the drain threshold.
// Jobs placed before the fold are legitimate — they are the drain's
// work, not the scheduler's mistake.
func CheckNoPlacementOnUnhealthy(s db.Store) []Violation {
	var vs []Violation
	nodes := s.ListNodes()
	for i := range nodes {
		n := &nodes[i]
		if n.HealthScore() >= monitor.UnhealthyBelow {
			continue
		}
		for _, j := range s.JobsOnNode(n.ID) {
			if j.State != db.JobRunning {
				continue
			}
			if j.PlacedAt.After(n.HealthAt) {
				vs = append(vs, Violation{
					Rule: "no-placement-on-unhealthy",
					Detail: fmt.Sprintf("job %s placed on node %s at %s, after its health dropped to %v at %s",
						j.ID, n.ID, j.PlacedAt.Format(time.RFC3339Nano),
						n.HealthScore(), n.HealthAt.Format(time.RFC3339Nano)),
				})
			}
		}
	}
	return vs
}

// CheckDegradedDrained audits that predictive drain actually moves
// work: an Active node that has sat below the unhealthy threshold for
// longer than grace must not still host a running job when a feasible
// free device (memory and capability both sufficient) exists on a
// healthy active node. Without spare capacity the job legitimately
// stays — a degraded node beats no node.
//
// unhealthySince maps node ID to when the auditor first observed the
// node below the threshold; the caller maintains it across audit
// points (the store only records each node's last fold time, not its
// crossing time). Nodes absent from the map are skipped: the crossing
// is too recent for the drain to owe an answer yet.
func CheckDegradedDrained(s db.Store, unhealthySince map[string]time.Time,
	now time.Time, grace time.Duration) []Violation {
	var vs []Violation
	nodes := s.ListNodes()
	for i := range nodes {
		n := &nodes[i]
		if n.Status != db.NodeActive || n.HealthScore() >= monitor.UnhealthyBelow {
			continue
		}
		since, ok := unhealthySince[n.ID]
		if !ok || now.Sub(since) <= grace {
			continue
		}
		for _, j := range s.JobsOnNode(n.ID) {
			if j.State != db.JobRunning {
				continue
			}
			if !spareDeviceFor(j, nodes, n.ID) {
				continue
			}
			vs = append(vs, Violation{
				Rule: "degraded-node-drained",
				Detail: fmt.Sprintf("job %s still runs on node %s (score %v), unhealthy for %v, with a feasible free device elsewhere",
					j.ID, n.ID, n.HealthScore(), now.Sub(since)),
			})
		}
	}
	return vs
}

// spareDeviceFor reports whether any healthy active node other than
// exclude offers a free device that fits the job.
func spareDeviceFor(j db.JobRecord, nodes []db.NodeRecord, exclude string) bool {
	need := gpu.ComputeCapability{Major: j.CapabilityMajor, Minor: j.CapabilityMinor}
	for i := range nodes {
		n := &nodes[i]
		if n.ID == exclude || n.Status != db.NodeActive ||
			n.HealthScore() < monitor.UnhealthyBelow {
			continue
		}
		for _, g := range n.GPUs {
			if g.Allocated || g.MemoryMiB < j.GPUMemMiB {
				continue
			}
			have := gpu.ComputeCapability{Major: g.CapabilityMajor, Minor: g.CapabilityMinor}
			if have.AtLeast(need) {
				return true
			}
		}
	}
	return false
}
