// Package consistency verifies backup images for the paper's central
// correctness property: that the backup site can recover the business
// process. A backup of the two-resource e-commerce workload is "collapsed"
// (§I) when the recovered stock database contains a business transaction
// the recovered sales database is missing — the application committed sales
// first, so no consistent cut of the ack order can ever contain stock
// without sales. Consistency groups make collapse impossible; independent
// per-volume replication does not.
package consistency

import "fmt"

// CommitSet is the recovered-commit view of one database image. db.DB and
// db.View both satisfy it.
type CommitSet interface {
	CommittedTxns() []uint64
	HasCommitted(txid uint64) bool
}

// Report is the verdict on one backup image pair.
type Report struct {
	// SalesTxns and StockTxns count committed business transactions in the
	// recovered images.
	SalesTxns, StockTxns int
	// OrphanStock lists transactions committed in stock but not sales —
	// each one is a collapse witness.
	OrphanStock []uint64
	// DanglingSales lists transactions committed in sales but not stock.
	// These are NOT collapses: they are in-flight orders the disaster cut
	// mid-way, and the application's recovery can resolve them precisely
	// because the order is preserved.
	DanglingSales []uint64
	// SalesPrefixOK and StockPrefixOK report whether each recovered commit
	// set is a prefix of that database's commit order (per-volume ordering;
	// must hold in every replication mode).
	SalesPrefixOK, StockPrefixOK bool
	// RPO is the data-loss window: the span of committed-at-main
	// transactions missing from the backup, expressed as a count.
	LostSalesTxns, LostStockTxns int
}

// Collapsed reports whether the image pair is unusable for recovery.
func (r Report) Collapsed() bool { return len(r.OrphanStock) > 0 }

// OrderingOK reports whether per-volume ordering held in both images.
func (r Report) OrderingOK() bool { return r.SalesPrefixOK && r.StockPrefixOK }

func (r Report) String() string {
	return fmt.Sprintf("consistency{sales=%d stock=%d orphans=%d dangling=%d collapsed=%v}",
		r.SalesTxns, r.StockTxns, len(r.OrphanStock), len(r.DanglingSales), r.Collapsed())
}

// Verify checks a recovered backup image pair against the main site's
// ground-truth commit orders (workload.Shop provides them).
func Verify(sales, stock CommitSet, salesOrder, stockOrder []uint64) Report {
	// One sorted listing per image: each call builds and sorts a fresh slice.
	salesTxns, stockTxns := sales.CommittedTxns(), stock.CommittedTxns()
	rep := Report{SalesTxns: len(salesTxns), StockTxns: len(stockTxns)}
	for _, tx := range stockTxns {
		if !sales.HasCommitted(tx) {
			rep.OrphanStock = append(rep.OrphanStock, tx)
		}
	}
	for _, tx := range salesTxns {
		if !stock.HasCommitted(tx) {
			rep.DanglingSales = append(rep.DanglingSales, tx)
		}
	}
	rep.SalesPrefixOK, rep.LostSalesTxns = prefixCheck(sales, salesOrder)
	rep.StockPrefixOK, rep.LostStockTxns = prefixCheck(stock, stockOrder)
	return rep
}

// prefixCheck reports whether the recovered set is a prefix of order, and
// how many trailing transactions are missing.
func prefixCheck(set CommitSet, order []uint64) (ok bool, lost int) {
	n := 0
	for n < len(order) && set.HasCommitted(order[n]) {
		n++
	}
	// Everything past the recovered prefix must be absent.
	for i := n; i < len(order); i++ {
		if set.HasCommitted(order[i]) {
			return false, len(order) - n
		}
	}
	return true, len(order) - n
}
