package main

import (
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/fabric"
)

// Raw sums kept beside the published counters so ratios can be formed after
// iterations (and a drain iteration's two phases) have been added up. Keys
// with this prefix never reach the output.
const rawPrefix = "_"

// collectCounts reads every layer's public counters off a finished system
// and ADDS them into out.counts. It runs before Stop so open watches are
// still open.
func collectCounts(sys *core.System, out *iterOut, namespaces []string, userBytes int64) {
	c := out.counts
	st := sys.Env.Stats()
	c["sim.handoffs"] += float64(st.Handoffs)
	c["sim.inline_steps"] += float64(st.InlineSteps)
	c["sim.heap_pushes"] += float64(st.HeapPushes)
	c["sim.fifo_bypasses"] += float64(st.FifoBypasses)
	c["sim.timer_cancels"] += float64(st.TimerCancels)
	c["sim.parallel_rounds"] += float64(st.ParallelRounds)
	c["sim.parallel_steps"] += float64(st.ParallelSteps)

	c["platform.api_calls"] += float64(sys.Main.API.Calls() + sys.Backup.API.Calls())
	c["platform.watches_open"] += float64(sys.Main.API.WatchCount() + sys.Backup.API.WatchCount())
	c[rawPrefix+"tenants"] += float64(len(namespaces))

	c["operator.configured"] += float64(sys.Operator.Configured())
	c["csiplugin.provisioned"] += float64(sys.Provisioner.Provisioned())
	c["csiplugin.snapshots"] += float64(sys.Main.Snapshots.Snapshots() + sys.Backup.Snapshots.Snapshots())

	c["storage.write_ops"] += float64(sys.Main.Array.WriteOps() + sys.Backup.Array.WriteOps())
	c["storage.read_ops"] += float64(sys.Main.Array.ReadOps() + sys.Backup.Array.ReadOps())
	c["storage.bytes_written"] += float64(sys.Main.Array.BytesWritten() + sys.Backup.Array.BytesWritten())
	c[rawPrefix+"user_bytes"] += float64(userBytes)
	for _, id := range sys.Backup.Array.ListVolumes() {
		if v, err := sys.Backup.Array.Volume(id); err == nil {
			c["storage.cow_copies"] += float64(v.COWCopies())
		}
	}
	// Journals are shared by a group's volumes (and a sharded group has
	// several), so count each one once.
	seen := map[any]bool{}
	for _, id := range sys.Main.Array.ListVolumes() {
		v, err := sys.Main.Array.Volume(id)
		if err != nil {
			continue
		}
		if j := v.Journal(); j != nil && !seen[j] {
			seen[j] = true
			c["storage.journal_appended"] += float64(j.Appended())
		}
	}

	for _, g := range sys.Replication.AllGroups() {
		c["replication.applied_records"] += float64(g.AppliedRecords())
		c["replication.applied_bytes"] += float64(g.AppliedBytes())
		c["replication.lanes"] += float64(g.Lanes())
		if sg, ok := g.(interface{ EpochCommits() int64 }); ok {
			c["replication.epoch_commits"] += float64(sg.EpochCommits())
		}
	}

	var paths []*fabric.TenantPath
	for _, ns := range namespaces {
		if tp := sys.TenantPath(ns); tp != nil {
			paths = append(paths, tp)
		}
		for _, lp := range sys.TenantLanePaths(ns) {
			if lp != nil {
				paths = append(paths, lp)
			}
		}
	}
	for _, tp := range paths {
		n := float64(tp.Transfers())
		c["fabric.transfers"] += n
		c[rawPrefix+"fabric.queue_delay_ns"] += n * float64(tp.MeanQueueDelay())
		if d := float64(tp.MaxQueueDelay()) / 1e6; d > c["fabric.queue_delay_max_ms"] {
			c["fabric.queue_delay_max_ms"] = d
		}
		c["fabric.drop_retries"] += float64(tp.DropRetries())
	}
	elapsed := sys.Env.Now()
	links := sys.Fabric.Forward.Links()
	for i, l := range links {
		ws := sys.Fabric.Forward.LinkWindowStats(i)
		c["fabric.pipelined"] += float64(ws.Pipelined)
		c["fabric.window_stalls"] += float64(ws.WindowStalls)
		c["netlink.sent_bytes"] += float64(l.SentBytes())
		c["netlink.transfers"] += float64(l.Transfers())
		c["netlink.retransmits"] += float64(l.Retransmits())
		c["netlink.order_violations"] += float64(l.OrderViolations())
		if m := float64(l.MaxInFlight()); m > c["netlink.max_inflight"] {
			c["netlink.max_inflight"] = m
		}
		c[rawPrefix+"netlink.busy_ns"] += l.Utilization(elapsed) * float64(elapsed)
		c[rawPrefix+"netlink.link_ns"] += float64(elapsed)
	}
}

func addDBCounts(out *iterOut, dbs ...*db.DB) {
	for _, d := range dbs {
		if d == nil {
			continue
		}
		out.counts["db.commits"] += float64(d.Commits())
		out.counts["db.wal_writes"] += float64(d.WALWrites())
		out.counts["db.page_flushes"] += float64(d.PageFlushes())
		out.counts["db.checkpoints"] += float64(d.Checkpoints())
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// deriveCounts turns per-iteration sums into the published per-layer
// figures: the ratios are formed from the sums, then the raw keys go.
func deriveCounts(c map[string]float64, ops float64) map[string]float64 {
	out := make(map[string]float64, len(c))
	for k, v := range c {
		if !strings.HasPrefix(k, rawPrefix) {
			out[k] = v
		}
	}
	out["sim.handoffs_per_op"] = ratio(c["sim.handoffs"], ops)
	out["sim.steps_per_round"] = ratio(c["sim.parallel_steps"], c["sim.parallel_rounds"])
	out["platform.api_calls_per_tenant"] = ratio(c["platform.api_calls"], c[rawPrefix+"tenants"])
	out["storage.write_amp"] = ratio(c["storage.bytes_written"], c[rawPrefix+"user_bytes"])
	out["replication.records_per_transfer"] = ratio(c["replication.applied_records"], c["fabric.transfers"])
	out["fabric.queue_delay_mean_ms"] = ratio(c[rawPrefix+"fabric.queue_delay_ns"], c["fabric.transfers"]) / float64(time.Millisecond)
	out["netlink.wire_amp"] = ratio(c["netlink.sent_bytes"], c["replication.applied_bytes"])
	out["netlink.utilization"] = ratio(c[rawPrefix+"netlink.busy_ns"], c[rawPrefix+"netlink.link_ns"])
	return out
}
