package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/fabric"
	"repro/internal/netlink"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// Layer probes: single-process micro-simulations that call one layer's
// public functions in a loop, so the host time of a call is that call's and
// not a neighbour process's. Each returns the host time of its measured
// region and how many operations that region held; set-up stays outside.
// Journal and replication-engine constructors get no probe on purpose (the
// API rule): their cost is read from the drain workloads.

const probeTime = 200 * time.Millisecond

type probeDef struct {
	name  string
	batch int
	run   func(n int) (elapsed time.Duration, ops int)
}

// runProbes runs every layer probe, each until it has measured for atLeast,
// and returns host nanoseconds per operation by name. db.commit_allocs
// comes from one more batch of the db.commit_ns probe.
func runProbes(atLeast time.Duration) map[string]float64 {
	out := map[string]float64{}
	for _, p := range probes {
		var total time.Duration
		ops := 0
		for total < atLeast {
			d, n := p.run(p.batch)
			total, ops = total+d, ops+n
		}
		out[p.name] = float64(total.Nanoseconds()) / float64(ops)
	}
	_, n, mallocs := probeCommit(2000)
	out["db.commit_allocs"] = float64(mallocs) / float64(n)
	return out
}

// simulate times env.Run around one driver process.
func simulate(env *sim.Env, fn func(p *sim.Proc)) time.Duration {
	env.Process("probe", fn)
	t0 := time.Now()
	env.Run(0)
	return time.Since(t0)
}

var probes = []probeDef{
	{"sim.handoff_ns", 20000, func(n int) (time.Duration, int) {
		return simulate(sim.NewEnv(1), func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(1) // heap push + process handoff
			}
		}), n
	}},
	{"sim.fifo_ns", 20000, func(n int) (time.Duration, int) {
		return simulate(sim.NewEnv(1), func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(0) // same-instant FIFO bypass + process handoff
			}
		}), n
	}},
	{"sim.inline_ns", 100000, func(n int) (time.Duration, int) {
		env := sim.NewEnv(1)
		left := n
		var step func()
		step = func() {
			if left--; left > 0 {
				env.Immediate(step)
			}
		}
		env.Immediate(step)
		t0 := time.Now()
		env.Run(0)
		return time.Since(t0), n
	}},
	{"sim.timer_ns", 20000, func(n int) (time.Duration, int) {
		env := sim.NewEnv(1)
		return simulate(env, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				ev := env.NewEvent()
				env.Immediate(ev.Trigger)
				p.WaitTimeout(ev, time.Second) // the event wins: timer canceled eagerly
			}
		}), n
	}},

	{"platform.create_ns", 5000, func(n int) (time.Duration, int) {
		env := sim.NewEnv(1)
		api := platform.NewAPIServer(env, platform.APIConfig{})
		objs := make([]*platform.Namespace, n)
		for i := range objs {
			objs[i] = &platform.Namespace{Meta: platform.Meta{Kind: platform.KindNamespace, Name: fmt.Sprintf("ns-%05d", i)}}
		}
		return simulate(env, func(p *sim.Proc) {
			for _, o := range objs {
				_ = api.Create(p, o) // distinct names: cannot fail
			}
		}), n
	}},
	{"platform.get_ns", 10000, func(n int) (time.Duration, int) {
		env := sim.NewEnv(1)
		api, key := populatedAPI(env, 1)
		return simulate(env, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				_, _ = api.Get(p, key)
			}
		}), n
	}},
	{"platform.list_1k_ns", 50, func(n int) (time.Duration, int) {
		env := sim.NewEnv(1)
		api, _ := populatedAPI(env, 1000)
		return simulate(env, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				api.List(p, platform.KindPVC, "")
			}
		}), n
	}},
	{"platform.watch_event_ns", 5000, func(n int) (time.Duration, int) {
		env := sim.NewEnv(1)
		api := platform.NewAPIServer(env, platform.APIConfig{})
		w := api.Watch(platform.KindNamespace)
		env.Process("consumer", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				w.Next(p)
			}
		})
		return simulate(env, func(p *sim.Proc) {
			ns := &platform.Namespace{Meta: platform.Meta{Kind: platform.KindNamespace, Name: "watched"}}
			_ = api.Create(p, ns)
			for i := 1; i < n; i++ {
				_ = api.Update(p, ns) // Update refreshes ns's resource version in place
			}
		}), n
	}},

	{"core.provision_ns", 64, func(n int) (time.Duration, int) {
		t0 := time.Now()
		sys := core.NewSystem(core.Config{Seed: 1, VolumeBlocks: 256, Storage: storage.Config{BlockSize: 512}})
		for i := 0; i < n; i++ {
			ns := fmt.Sprintf("tenant-%03d", i)
			sys.Env.Process(ns, func(p *sim.Proc) {
				_, _ = sys.ProvisionTenant(p, platform.TenantSpec{
					Namespace: ns, PVCNames: []string{"sales", "stock"}, Backup: true, Profile: "oltp-external",
				})
			})
		}
		sys.Env.Run(0)
		d := time.Since(t0)
		sys.Stop()
		sys.Env.Run(0)
		return d, n
	}},

	{"db.commit_ns", 2000, func(n int) (time.Duration, int) {
		el, ops, _ := probeCommit(n)
		return el, ops
	}},
	{"db.get_ns", 5000, func(n int) (time.Duration, int) {
		env, d := probeDB()
		var el time.Duration
		simulate(env, func(p *sim.Proc) {
			database := d(p)
			t := database.Begin()
			for k := uint64(0); k < 64; k++ {
				_ = t.Put(k, make([]byte, 16))
			}
			_ = t.Commit(p)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				_, _, _ = database.Get(p, uint64(i%64))
			}
			el = time.Since(t0)
		})
		return el, n
	}},
	{"db.recover_ns_per_txn", 1000, func(n int) (time.Duration, int) {
		env, _, vol := probeVolume(2048)
		cfg := db.Config{WALBlocks: 256}
		var el time.Duration
		recovered := 0
		simulate(env, func(p *sim.Proc) {
			database, err := db.Open(p, "probe", vol, cfg)
			if err != nil {
				return
			}
			val := make([]byte, 16)
			for i := 0; i < n; i++ {
				t := database.Begin()
				_ = t.Put(uint64(i), val)
				_ = t.Commit(p)
			}
			t0 := time.Now()
			again, err := db.Open(p, "probe", vol, cfg) // crash recovery: WAL scan, redo, checkpoint
			el = time.Since(t0)
			if err == nil {
				recovered = again.RecoveredTxns()
			}
		})
		return el, max(recovered, 1)
	}},
	{"wal.encode_ns", 200000, func(n int) (time.Duration, int) {
		rec := wal.Record{Type: wal.TypeUpdate, Epoch: 1, TxID: 7, Key: 9, Val: make([]byte, 16)}
		buf := make([]byte, 0, 64)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			buf = wal.AppendEncode(buf[:0], rec)
		}
		return time.Since(t0), n
	}},
	{"wal.scan_ns", 5000, func(n int) (time.Duration, int) {
		b := wal.NewBlockBuilder(4096, 1, 0)
		rec := wal.Record{Type: wal.TypeUpdate, Epoch: 1, TxID: 7, Key: 9, Val: make([]byte, 16)}
		for i := 0; i < (4096-wal.BlockHeaderSize)/rec.EncodedSize(); i++ {
			_ = b.Append(rec)
		}
		block := b.Blocks()[0]
		t0 := time.Now()
		for i := 0; i < n; i++ {
			_, _, _ = wal.ScanBlock(block, 1, 0)
		}
		return time.Since(t0), n
	}},

	{"storage.write_ns", 10000, func(n int) (time.Duration, int) {
		env, _, vol := probeVolume(512)
		buf := make([]byte, vol.BlockSize())
		return simulate(env, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				_, _ = vol.Write(p, int64(i%512), buf)
			}
		}), n
	}},
	{"storage.cow_write_ns", 4096, func(n int) (time.Duration, int) {
		env, arr, vol := probeVolume(int64(n))
		buf := make([]byte, vol.BlockSize())
		var el time.Duration
		simulate(env, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				_, _ = vol.Write(p, int64(i), buf)
			}
			_, _ = arr.CreateSnapshot("snap", vol.ID())
			t0 := time.Now()
			for i := 0; i < n; i++ {
				_, _ = vol.Write(p, int64(i), buf) // first write under a snapshot: copy-on-write
			}
			el = time.Since(t0)
		})
		return el, n
	}},
	{"storage.snapshot_read_ns", 10000, func(n int) (time.Duration, int) {
		env, arr, vol := probeVolume(512)
		buf := make([]byte, vol.BlockSize())
		var el time.Duration
		simulate(env, func(p *sim.Proc) {
			for i := 0; i < 512; i++ {
				_, _ = vol.Write(p, int64(i), buf)
			}
			snap, err := arr.CreateSnapshot("snap", vol.ID())
			if err != nil {
				return
			}
			t0 := time.Now()
			for i := 0; i < n; i++ {
				_, _ = snap.Read(p, int64(i%512))
			}
			el = time.Since(t0)
		})
		return el, n
	}},

	{"fabric.passthrough_ns", 10000, func(n int) (time.Duration, int) { return probeFabric(n, 0) }},
	{"fabric.dispatch_ns_c1", 8192, func(n int) (time.Duration, int) { return probeFabric(n, 1) }},
	{"fabric.dispatch_ns_c8", 8192, func(n int) (time.Duration, int) { return probeFabric(n, 8) }},
	{"fabric.dispatch_ns_c64", 8192, func(n int) (time.Duration, int) { return probeFabric(n, 64) }},

	{"netlink.transfer_ns", 10000, func(n int) (time.Duration, int) {
		env := sim.NewEnv(1)
		l := netlink.New(env, probeLink)
		return simulate(env, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				l.Transfer(p, 4096)
			}
		}), n
	}},
	{"netlink.send_ns", 10000, func(n int) (time.Duration, int) {
		env := sim.NewEnv(1)
		l := netlink.New(env, probeLink)
		return simulate(env, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Wait(l.Send(p, 4096))
			}
		}), n
	}},

	{"telemetry.counter_ns", 200000, func(n int) (time.Duration, int) {
		reg := telemetry.New(sim.NewEnv(1), telemetry.Config{})
		t0 := time.Now()
		for i := 0; i < n; i++ {
			reg.Counter("probe.ops", telemetry.L("tenant", "tenant-001")).Inc() // labelled lookup + increment
		}
		return time.Since(t0), n
	}},
	{"telemetry.probe_sample_ns", 2000, func(n int) (time.Duration, int) {
		const series = 64
		env := sim.NewEnv(1)
		reg := telemetry.New(env, telemetry.Config{SamplePeriod: time.Millisecond})
		for i := 0; i < series; i++ {
			reg.Probe("probe.value", func(time.Duration) (float64, bool) { return 1, true },
				telemetry.L("tenant", fmt.Sprintf("tenant-%03d", i)))
		}
		return simulate(env, func(p *sim.Proc) {
			p.Sleep(time.Duration(n) * time.Millisecond) // one advance across n sample periods
		}), n * series
	}},
}

var probeLink = netlink.Config{Propagation: time.Millisecond, BandwidthBps: 1e9}

// populatedAPI returns an API server holding n claims and one's key.
func populatedAPI(env *sim.Env, n int) (*platform.APIServer, platform.ObjectKey) {
	api := platform.NewAPIServer(env, platform.APIConfig{})
	var key platform.ObjectKey
	env.Process("populate", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			c := &platform.PersistentVolumeClaim{Meta: platform.Meta{Kind: platform.KindPVC, Namespace: "probe", Name: fmt.Sprintf("claim-%04d", i)}}
			_ = api.Create(p, c)
			key = c.Key()
		}
	})
	env.Run(0)
	return api, key
}

func probeVolume(blocks int64) (*sim.Env, *storage.Array, *storage.Volume) {
	env := sim.NewEnv(1)
	arr := storage.NewArray(env, "probe", storage.Config{})
	vol, err := arr.CreateVolume("v", blocks)
	if err != nil {
		panic(err) // a fresh array cannot refuse its first volume
	}
	return env, arr, vol
}

// probeDB returns an environment and an opener for a database on a fresh
// unreplicated volume (Open needs a process to charge its I/O to).
func probeDB() (*sim.Env, func(p *sim.Proc) *db.DB) {
	env, _, vol := probeVolume(2048)
	return env, func(p *sim.Proc) *db.DB {
		d, err := db.Open(p, "probe", vol, db.Config{})
		if err != nil {
			panic(err)
		}
		return d
	}
}

// probeCommit times n single-row commits and counts their mallocs.
func probeCommit(n int) (elapsed time.Duration, ops int, mallocs uint64) {
	env, open := probeDB()
	val := make([]byte, 16)
	var m0, m1 runtime.MemStats
	elapsed = simulate(env, func(p *sim.Proc) {
		database := open(p)
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			t := database.Begin()
			_ = t.Put(uint64(i), val)
			_ = t.Commit(p)
		}
		runtime.ReadMemStats(&m1)
	})
	return elapsed, n, m1.Mallocs - m0.Mallocs
}

// probeFabric times n 4 KiB transfers through a one-link fabric: classes 0
// is the classless passthrough (no dispatcher), otherwise that many
// processes keep that many classes queued so every pick arbitrates between
// them.
func probeFabric(n, classes int) (time.Duration, int) {
	env := sim.NewEnv(1)
	cfg := fabric.Config{Links: []netlink.Config{probeLink}}
	for c := 0; c < classes; c++ {
		cfg.Classes = append(cfg.Classes, fabric.ClassConfig{Name: fmt.Sprintf("c%02d", c)})
	}
	f := fabric.New(env, cfg)
	senders := max(classes, 1)
	per := n / senders
	for c := 1; c < senders; c++ {
		tp := f.Path(fmt.Sprintf("c%02d", c), "probe")
		env.Process("sender", func(p *sim.Proc) {
			for i := 0; i < per; i++ {
				tp.Transfer(p, 4096)
			}
		})
	}
	tp := f.Path("c00", "probe")
	el := simulate(env, func(p *sim.Proc) {
		for i := 0; i < per; i++ {
			tp.Transfer(p, 4096)
		}
	})
	f.Stop()
	env.Run(0)
	return el, per * senders
}
