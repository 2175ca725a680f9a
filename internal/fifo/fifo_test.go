package fifo

import "testing"

// keys lists m's live keys in eviction order, oldest first.
func keys(m *Map[int, int]) []int {
	var out []int
	for _, r := range m.order[m.head:] {
		if m.live(r) {
			out = append(out, r.key)
		}
	}
	return out
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMapBasics(t *testing.T) {
	m := New[int, int](3)
	if _, ok := m.Get(1); ok {
		t.Fatal("empty map holds 1")
	}
	for k := 1; k <= 3; k++ {
		if n := m.Put(k, 10*k); n != 0 {
			t.Fatalf("Put(%d) evicted %d below the bound", k, n)
		}
	}
	// An update keeps the entry's position: 1 stays the oldest.
	if n := m.Put(1, 11); n != 0 {
		t.Fatalf("update evicted %d", n)
	}
	if v, ok := m.Get(1); !ok || v != 11 {
		t.Fatalf("Get(1) = %d, %v; want 11, true", v, ok)
	}
	if n := m.Put(4, 40); n != 1 {
		t.Fatalf("Put past the bound evicted %d, want 1", n)
	}
	if _, ok := m.Get(1); ok {
		t.Fatal("the oldest entry survived an overflow")
	}
	if got, want := keys(m), []int{2, 3, 4}; !equal(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	m.Delete(3)
	m.Delete(3) // deleting an absent key is a no-op
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
}

// TestMapReinsertEvictsAtNewPosition: a deleted key inserted again is
// evicted at its new position, after entries inserted before it; the
// record of its first insertion must not evict the live one.
func TestMapReinsertEvictsAtNewPosition(t *testing.T) {
	const max = 64
	m := New[int, int](max)
	m.Put(-1, 0) // k
	m.Put(-2, 0) // a
	m.Delete(-1)
	m.Put(-1, 0)
	for k := 0; m.Len() < max; k++ {
		m.Put(k, 0)
	}
	if n := m.Put(1000, 0); n != 1 {
		t.Fatalf("overflow evicted %d, want 1", n)
	}
	if _, ok := m.Get(-2); ok {
		t.Fatal("the oldest key survived the overflow")
	}
	if _, ok := m.Get(-1); !ok {
		t.Fatal("the re-inserted key was evicted at its old position")
	}
}

// TestMapRecordsBounded: keys that are inserted and deleted leave records
// that compaction removes, so after a Delete the ring holds at most
// 2·Len()+16 records, the live keys still in order.
func TestMapRecordsBounded(t *testing.T) {
	m := New[int, int](1 << 10)
	for k := 0; k < 10000; k++ {
		m.Put(k, 0)
		if k%5 == 0 {
			continue
		}
		m.Delete(k)
		if m.Records() > 2*m.Len()+16 {
			t.Fatalf("after deleting key %d: %d records for %d live entries", k, m.Records(), m.Len())
		}
	}
	got := keys(m)
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("compaction reordered the live keys: %v", got)
		}
	}
}

// TestMapSteadyStateAllocs: once the ring has grown, eviction under
// overflow and compaction under deletes allocate nothing.
func TestMapSteadyStateAllocs(t *testing.T) {
	m := New[int, int](1 << 10)
	k := 0
	churn := func() {
		m.Put(k, 0) // past the bound: evicts the oldest
		m.Put(k+1, 0)
		m.Delete(k + 1) // leaves a record for compaction
		k += 2
	}
	for i := 0; i < 1<<14; i++ {
		churn()
	}
	if allocs := testing.AllocsPerRun(1<<12, churn); allocs != 0 {
		t.Errorf("steady-state eviction and compaction: %.3f allocs/op, want 0", allocs)
	}
}
