package repro

import (
	"reflect"
	"testing"

	"repro/internal/exp"
)

// TestDataPathTablesMatchBENCH10 reruns the cheap data-path experiments —
// switch throughput (E2), PIM convergence (E3), starvation (E5) and
// scheduler families (E26), which exercise the per-VC buffers, PIM and the
// switch slot loop — at seed 42 and requires every table to equal the
// committed BENCH_10 snapshot cell for cell. A data-path optimisation must
// not move a single simulated number. CI runs the same comparison over
// the slower E4, E25 and E30 through an2bench -json.
func TestDataPathTablesMatchBENCH10(t *testing.T) {
	snap := loadSnapshot(t, "BENCH_10.json")
	for _, id := range []string{"E2", "E3", "E5", "E26"} {
		e, ok := exp.Lookup(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		want, ok := snap[id]
		if !ok {
			t.Fatalf("BENCH_10.json has no %s record", id)
		}
		tables, err := e.Run(42)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) != len(want.Tables) {
			t.Fatalf("%s: %d tables, BENCH_10 has %d", id, len(tables), len(want.Tables))
		}
		for k, tb := range tables {
			w := want.Tables[k]
			if tb.Title() != w.Title || !reflect.DeepEqual(tb.Headers(), w.Headers) || !reflect.DeepEqual(tb.Rows(), w.Rows) {
				t.Errorf("%s table %d differs from BENCH_10:\ngot  %q %q %q\nwant %q %q %q",
					id, k, tb.Title(), tb.Headers(), tb.Rows(), w.Title, w.Headers, w.Rows)
			}
		}
	}
}
