package consistency

import (
	"math/rand"
	"testing"

	"repro/internal/db"
	"repro/internal/sim"
	"repro/internal/storage"
)

// BenchmarkVerify: one op verifies shop_adc's failover pair against both
// commit orders, 1..4,000. The pair is the images db's BenchmarkReplay/shop
// replays — 4,000 orders, each a sales row and a stock transaction of the same
// ID updating two of 100 Zipf-skewed items, on 4 KiB blocks, 2,048-block
// volumes and a 256-block WAL — each opened once as a View.
func BenchmarkVerify(b *testing.B) {
	const orders = 4000
	cfg := db.Config{WALBlocks: 256}
	env := sim.NewEnv(1)
	a := storage.NewArray(env, "arr", storage.Config{BlockSize: 4096})
	env.Process("bench", func(p *sim.Proc) {
		var vols [2]*storage.Volume
		var dbs [2]*db.DB
		for i, id := range []storage.VolumeID{"sales", "stock"} {
			vol, err := a.CreateVolume(id, 2048)
			if err == nil {
				dbs[i], err = db.Open(p, string(id), vol, cfg)
			}
			if err != nil {
				b.Fatal(err)
			}
			vols[i] = vol
		}
		items := rand.NewZipf(rand.New(rand.NewSource(1)), 1.2, 1, 99)
		order := make([]uint64, orders)
		for i := range order {
			txid := uint64(i + 1)
			order[i] = txid
			sales := dbs[0].BeginWithID(txid)
			sales.Put(txid, make([]byte, 16))
			stock := dbs[1].BeginWithID(txid)
			stock.Put(items.Uint64()+1, make([]byte, 16))
			stock.Put(items.Uint64()+1, make([]byte, 16))
			for _, tx := range []*db.Txn{sales, stock} {
				if err := tx.Commit(p); err != nil {
					b.Fatal(err)
				}
			}
		}
		var views [2]*db.View
		for i, vol := range vols {
			v, err := db.OpenView(p, string(vol.ID()), vol, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if v.RecoveredTxns() != orders {
				b.Fatalf("%s: replayed %d of %d orders", vol.ID(), v.RecoveredTxns(), orders)
			}
			views[i] = v
		}
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			if rep := Verify(views[0], views[1], order, order); rep.Collapsed() || !rep.OrderingOK() || rep.LostSalesTxns != 0 {
				b.Fatalf("the full pair verified as %v", rep)
			}
		}
	})
	env.Run(0)
}
