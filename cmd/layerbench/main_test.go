package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// ledgerOutput reads the committed ledger and prints each row's medians as
// one benchmark line under its package, the way go test -benchmem prints a
// run; edit may change a row's figures first.
func ledgerOutput(t *testing.T, edit func(key string, r *row)) (ledger, string) {
	t.Helper()
	data, err := os.ReadFile("../../BENCH_layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(l.Rows))
	for k := range l.Rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out strings.Builder
	for _, k := range keys {
		r := *l.Rows[k]
		if edit != nil {
			edit(k, &r)
		}
		pkg, name, _ := strings.Cut(k, ".")
		fmt.Fprintf(&out, "pkg: %s\nBenchmark%s \t 100\t %v ns/op\t %v B/op\t %v allocs/op", pkg, name, r.NsOp[1], r.Bytes, r.Allocs)
		units := make([]string, 0, len(r.Metrics))
		for u := range r.Metrics {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, u := range units {
			fmt.Fprintf(&out, "\t %v %s", r.Metrics[u], u)
		}
		out.WriteString("\n")
	}
	return l, out.String()
}

// check parses output and compares it with the ledger, returning the verdict
// and the lines the check printed as failing.
func check(t *testing.T, want ledger, output string) (ok bool, failed []string) {
	t.Helper()
	got, _, err := parse(strings.NewReader(output))
	if err != nil {
		t.Fatal(err)
	}
	var printed strings.Builder
	ok = compare(&printed, want, got)
	for _, line := range strings.Split(printed.String(), "\n") {
		if strings.Contains(line, "FAIL") {
			failed = append(failed, line)
		}
	}
	return ok, failed
}

// The committed ledger's own medians pass the check; one more allocation in
// Txn.Commit, B/op 2% over the ledger, or a missing row fails it, naming the
// row; B/op 0.5% over passes.
func TestCheckHoldsTheLedger(t *testing.T) {
	const commit = "repro/internal/db.TxnCommit"
	for _, c := range []struct {
		name string
		edit func(key string, r *row)
		ok   bool
	}{
		{"unchanged", nil, true},
		{"one more allocation in Txn.Commit", func(k string, r *row) {
			if k == commit {
				r.Allocs++
			}
		}, false},
		{"B/op 0.5% over", func(k string, r *row) {
			if k == commit {
				r.Bytes *= 1.005
			}
		}, true},
		{"B/op 2% over", func(k string, r *row) {
			if k == commit {
				r.Bytes *= 1.02
			}
		}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, output := ledgerOutput(t, c.edit)
			ok, failed := check(t, want, output)
			named := len(failed) == 1 && strings.HasPrefix(failed[0], commit+" ")
			if ok != c.ok || ok != (len(failed) == 0) || !ok && !named {
				t.Fatalf("check = %v, want %v; failing rows:\n%s", ok, c.ok, strings.Join(failed, "\n"))
			}
		})
	}
	t.Run("missing row", func(t *testing.T) {
		want, output := ledgerOutput(t, nil)
		var kept []string
		for _, line := range strings.Split(output, "\n") {
			if !strings.HasPrefix(line, "BenchmarkTxnCommit ") {
				kept = append(kept, line)
			}
		}
		ok, failed := check(t, want, strings.Join(kept, "\n"))
		if ok || len(failed) != 1 || !strings.HasPrefix(failed[0], commit+" ") || !strings.Contains(failed[0], "not in this run") {
			t.Fatalf("check = %v without the %s row; failing rows:\n%s", ok, commit, strings.Join(failed, "\n"))
		}
	})
}
