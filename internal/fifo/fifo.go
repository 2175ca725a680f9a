// Package fifo provides Map, the one bounded table behind the data path's
// "seen" records: a host's completed-window guard and fragment buffers, a
// device's exactly-once shadow.
package fifo

// Map is a map bounded to max live entries that evicts the oldest in
// insertion order. An update keeps the entry's position; a deleted key
// inserted again takes a new one. A Map is not safe for concurrent use.
type Map[K comparable, V any] struct {
	max   int
	items map[K]item[V]
	// order holds one record per insertion, oldest at head. A record whose
	// position is not its key's (the key was deleted since) is stale.
	order []record[K]
	head  int
	next  uint64 // position of the next insertion
}

type item[V any] struct {
	val V
	pos uint64
}

type record[K comparable] struct {
	key K
	pos uint64
}

// New returns an empty Map bounded to max live entries.
func New[K comparable, V any](max int) *Map[K, V] {
	return &Map[K, V]{max: max, items: map[K]item[V]{}}
}

// Get returns the value stored under k.
func (m *Map[K, V]) Get(k K) (V, bool) {
	it, ok := m.items[k]
	return it.val, ok
}

// Put stores v under k and returns how many live entries it evicted.
func (m *Map[K, V]) Put(k K, v V) (evicted int) {
	if it, ok := m.items[k]; ok {
		m.items[k] = item[V]{v, it.pos}
		return 0
	}
	m.items[k] = item[V]{v, m.next}
	m.order = append(m.order, record[K]{k, m.next})
	m.next++
	for ; len(m.items) > m.max; m.head++ {
		if r := m.order[m.head]; m.live(r) {
			delete(m.items, r.key)
			evicted++
		}
	}
	if m.head > len(m.order)/2 {
		m.compact()
	}
	return evicted
}

// Delete removes k. After it the map holds at most 2·Len()+16 records.
func (m *Map[K, V]) Delete(k K) {
	delete(m.items, k)
	if m.Records() > 2*len(m.items)+16 {
		m.compact()
	}
}

// Len reports the live entry count.
func (m *Map[K, V]) Len() int { return len(m.items) }

// Records reports the insertion records the map holds: one per live entry
// plus the stale ones of deleted keys that compaction has not dropped.
func (m *Map[K, V]) Records() int { return len(m.order) - m.head }

func (m *Map[K, V]) live(r record[K]) bool {
	it, ok := m.items[r.key]
	return ok && it.pos == r.pos
}

// compact moves the live records, in order, to the front of order's array
// (writes trail reads), so once the array has grown to its steady size
// neither eviction nor compaction allocates.
func (m *Map[K, V]) compact() {
	live := m.order[:0]
	for _, r := range m.order[m.head:] {
		if m.live(r) {
			live = append(live, r)
		}
	}
	clear(m.order[len(live):])
	m.order, m.head = live, 0
}
