// Package consistency verifies backup images for the paper's central
// correctness property: that the backup site can recover the business
// process. A backup of the two-resource e-commerce workload is "collapsed"
// (§I) when the recovered stock database contains a business transaction
// the recovered sales database is missing — the application committed sales
// first, so no consistent cut of the ack order can ever contain stock
// without sales. Consistency groups make collapse impossible; independent
// per-volume replication does not.
package consistency

import (
	"fmt"
	"slices"
)

// CommitSet is the recovered-commit view of one database image. db.DB and
// db.View both satisfy it. CommittedTxns lists the set ascending and distinct,
// a copy the caller may keep: Verify reads nothing else.
type CommitSet interface {
	CommittedTxns() []uint64
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
	// LostSalesTxns and LostStockTxns count the main-site commits missing
	// from each recovered image: those past the longest prefix of that
	// database's commit order the image holds.
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
	// One listing per image, both sorted: one merge finds what each lacks.
	salesTxns, stockTxns := sales.CommittedTxns(), stock.CommittedTxns()
	rep := Report{SalesTxns: len(salesTxns), StockTxns: len(stockTxns)}
	i, j := 0, 0
	for i < len(salesTxns) || j < len(stockTxns) {
		switch {
		case j == len(stockTxns) || i < len(salesTxns) && salesTxns[i] < stockTxns[j]:
			rep.DanglingSales = append(rep.DanglingSales, salesTxns[i])
			i++
		case i == len(salesTxns) || stockTxns[j] < salesTxns[i]:
			rep.OrphanStock = append(rep.OrphanStock, stockTxns[j])
			j++
		default:
			i, j = i+1, j+1
		}
	}
	rep.SalesPrefixOK, rep.LostSalesTxns = prefixCheck(salesTxns, salesOrder)
	rep.StockPrefixOK, rep.LostStockTxns = prefixCheck(stockTxns, stockOrder)
	return rep
}

// prefixCheck reports whether the recovered set, listed ascending, is a prefix
// of order, and how many trailing transactions are missing.
func prefixCheck(listing, order []uint64) (ok bool, lost int) {
	c := cursor{set: listing}
	n := 0
	for n < len(order) && c.has(order[n]) {
		n++
	}
	// Everything past the recovered prefix must be absent.
	for _, tx := range order[n:] {
		if c.has(tx) {
			return false, len(order) - n
		}
	}
	return true, len(order) - n
}

// cursor looks IDs up in a sorted, distinct set for a caller that asks in
// about ascending order, as a commit order runs: it looks where the last lookup
// ended, and at the next entry, before it searches the whole set.
// (internal/db's replay keeps the same rule.)
type cursor struct {
	set []uint64
	at  int // where the last lookup ended
}

func (c *cursor) has(id uint64) bool {
	for i := c.at; i < len(c.set) && i <= c.at+1; i++ {
		if c.set[i] == id {
			c.at = i
			return true
		}
	}
	i, ok := slices.BinarySearch(c.set, id)
	c.at = i
	return ok
}
