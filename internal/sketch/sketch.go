// Package sketch implements the space-saving summary of Metwally, Agrawal
// and El Abbadi ("Efficient Computation of Frequent and Top-k Elements in
// Data Streams", ICDT'05) over opaque byte keys. It was the counting
// substrate of the Top-k miner's approximate mode; that mode is retired and
// no package imports sketch any more.
//
// A Sketch of width w tracks at most w distinct keys. Offering a tracked key
// adds the offered weight to its counter; offering an untracked key when the
// sketch is full evicts the minimum-count entry and inherits its count as
// the newcomer's starting point, remembering that inherited amount as the
// entry's maximum possible overcount (maxError).
//
// # Error math
//
// Counter totals are conserved: every Offer adds exactly its weight to one
// counter, so the counters always sum to N, the total offered weight. The
// minimum counter is therefore at most N/w, and since every overcount is an
// inherited minimum, every estimate obeys
//
//	true(key) ≤ Estimate(key) ≤ true(key) + N/w.
//
// Choosing w = ⌈1/ε⌉ bounds every overcount by εN. The same bound covers
// untracked keys: a key absent from a full sketch was never offered more
// than the current minimum count (the minimum is non-decreasing once the
// sketch fills, and an evicted key's count never exceeded it), so Estimate
// reports (min, min) for absent keys and the invariants above still hold.
//
// All operations are deterministic: ties in the eviction heap break on the
// key bytes, so identical offer sequences produce identical sketches.
package sketch

import "sort"

// Entry is one tracked key with its count estimate and overcount bound:
// Count − MaxError ≤ true count ≤ Count.
type Entry struct {
	Key      string
	Count    uint64
	MaxError uint64
}

// Sketch is a space-saving summary. The zero value is unusable; construct
// with New. Not safe for concurrent use.
type Sketch struct {
	width int
	// entries is a binary min-heap on (count, key): entries[0] is the
	// eviction victim. index maps each key to its heap position.
	entries   []Entry
	index     map[string]int
	n         uint64
	evictions uint64
}

// New returns a sketch tracking at most width keys; width < 1 is clamped to
// 1 (a single-counter summary with error bound N).
func New(width int) *Sketch {
	if width < 1 {
		width = 1
	}
	return &Sketch{width: width, index: make(map[string]int, width)}
}

// Width returns the maximum number of tracked keys.
func (s *Sketch) Width() int { return s.width }

// Len returns the number of currently tracked keys.
func (s *Sketch) Len() int { return len(s.entries) }

// N returns the total weight offered so far.
func (s *Sketch) N() uint64 { return s.n }

// Evictions returns how many tracked keys have been displaced.
func (s *Sketch) Evictions() uint64 { return s.evictions }

// MinCount returns the smallest tracked count when the sketch is full, and
// 0 otherwise (an untracked key of a sketch below width was never offered).
// It upper-bounds the true count of every untracked key and every
// overcount, and is non-decreasing once the sketch fills.
func (s *Sketch) MinCount() uint64 {
	if len(s.entries) < s.width {
		return 0
	}
	return s.entries[0].Count
}

// ErrorBound returns the current worst-case overcount of any estimate:
// MinCount, which never exceeds N()/Width().
func (s *Sketch) ErrorBound() uint64 { return s.MinCount() }

// Offer adds weight to key's counter, evicting the minimum entry when the
// key is untracked and the sketch is full. The key bytes are copied only
// when a new entry is created, so offering tracked keys does not allocate.
func (s *Sketch) Offer(key []byte, weight uint64) {
	s.n += weight
	if i, ok := s.index[string(key)]; ok { // map-from-bytes: no alloc
		s.entries[i].Count += weight
		s.siftDown(i)
		return
	}
	if len(s.entries) < s.width {
		s.entries = append(s.entries, Entry{Key: string(key), Count: weight})
		s.index[s.entries[len(s.entries)-1].Key] = len(s.entries) - 1
		s.siftUp(len(s.entries) - 1)
		return
	}
	min := s.entries[0]
	delete(s.index, min.Key)
	s.entries[0] = Entry{Key: string(key), Count: min.Count + weight, MaxError: min.Count}
	s.index[s.entries[0].Key] = 0
	s.siftDown(0)
	s.evictions++
}

// Estimate returns the count estimate and overcount bound for key. For a
// tracked key these are its entry's values; for an untracked key both are
// MinCount (its true count cannot exceed the minimum tracked count, and the
// estimate may overcount by all of it). In both cases
// estimate − maxError ≤ true count ≤ estimate.
func (s *Sketch) Estimate(key []byte) (estimate, maxError uint64, tracked bool) {
	if i, ok := s.index[string(key)]; ok {
		return s.entries[i].Count, s.entries[i].MaxError, true
	}
	m := s.MinCount()
	return m, m, false
}

// SeenAtLeast reports whether key's true offered weight is guaranteed to be
// at least n — i.e. its guaranteed count (estimate − maxError) reaches n.
// False negatives happen after evictions; false positives never do.
func (s *Sketch) SeenAtLeast(key []byte, n uint64) bool {
	i, ok := s.index[string(key)]
	if !ok {
		return false
	}
	return s.entries[i].Count-s.entries[i].MaxError >= n
}

// Entries returns the tracked entries sorted by count descending, maxError
// ascending, key ascending — a deterministic ranking.
func (s *Sketch) Entries() []Entry {
	out := make([]Entry, len(s.entries))
	copy(out, s.entries)
	sort.Slice(out, func(i, j int) bool { return entryLess(out[i], out[j]) })
	return out
}

// entryLess ranks a above b: higher count first, then smaller error, then
// smaller key.
func entryLess(a, b Entry) bool {
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	if a.MaxError != b.MaxError {
		return a.MaxError < b.MaxError
	}
	return a.Key < b.Key
}

// heapLess orders the eviction heap: smaller count first, ties broken on
// larger error then larger key (the entry ranked last by entryLess goes
// first), keeping eviction order deterministic.
func (s *Sketch) heapLess(i, j int) bool {
	a, b := s.entries[i], s.entries[j]
	if a.Count != b.Count {
		return a.Count < b.Count
	}
	return entryLess(b, a)
}

func (s *Sketch) swap(i, j int) {
	s.entries[i], s.entries[j] = s.entries[j], s.entries[i]
	s.index[s.entries[i].Key] = i
	s.index[s.entries[j].Key] = j
}

func (s *Sketch) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.heapLess(i, parent) {
			return
		}
		s.swap(i, parent)
		i = parent
	}
}

func (s *Sketch) siftDown(i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(s.entries) && s.heapLess(l, least) {
			least = l
		}
		if r := 2*i + 2; r < len(s.entries) && s.heapLess(r, least) {
			least = r
		}
		if least == i {
			return
		}
		s.swap(i, least)
		i = least
	}
}
