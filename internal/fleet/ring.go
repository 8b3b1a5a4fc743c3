// Package fleet is the replica-set front tier over N bstcd replicas: a
// consistent-hash router with one health state per replica, fed by both
// /readyz probes and request outcomes, health-checked retries with capped
// exponential backoff and full jitter, and tail-latency hedging — the layer
// that makes a fleet of independently failing replicas behave like one
// fault-tolerant classification service.
//
// The package exposes the fleet two ways. Client is the library client: it
// owns the ring, the per-replica health state, and the retry/hedge machinery,
// and is what cmd/bstcload drives in -fleet mode. Gateway wraps a Client in
// the same /v1/classify HTTP API the replicas speak, so existing callers
// point at cmd/bstcgw and need no new client.
//
// All routing is deterministic: the ring hashes (seed, member, vnode) and
// (seed, key) with pure FNV-1a, so the same routing key lands on the same
// healthy replica across processes, restarts, and machines. All failure
// behavior is deterministic under test: the client's clock is injectable,
// backoff draws from a seeded stream, and the fault sites fleet.dial,
// fleet.probe, and fleet.hedge let the chaos suite script failures.
package fleet

import (
	"sort"
)

// Ring is an immutable consistent-hash ring over a member set. Each member
// contributes vnodes points hashed from (seed, member, vnode index); a key
// routes to the member owning the first point clockwise from the key's
// hash. Removing a member moves only the keys it owned (≤ roughly
// keys/members for a balanced ring); every other key keeps its replica.
type Ring struct {
	seed    uint64
	vnodes  int
	members []string // sorted, unique
	points  []ringPoint
}

type ringPoint struct {
	hash   uint64
	member int32 // index into members
}

// DefaultVNodes balances a small fleet to within a few percent while
// keeping ring rebuilds cheap.
const DefaultVNodes = 128

// NewRing builds a ring over members (deduplicated, order-insensitive).
// vnodes <= 0 selects DefaultVNodes.
func NewRing(seed uint64, vnodes int, members []string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m != "" && !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{seed: seed, vnodes: vnodes, members: uniq}
	r.points = make([]ringPoint, 0, len(uniq)*vnodes)
	for mi, m := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(seed, m, v), member: int32(mi)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Ties (astronomically rare) break on member index so the sort is
		// total and the ring identical everywhere.
		return a.member < b.member
	})
	return r
}

// With returns a ring over a new member set, keeping seed and vnode count.
func (r *Ring) With(members []string) *Ring {
	return NewRing(r.seed, r.vnodes, members)
}

// Members returns the ring's member set, sorted.
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// Lookup returns the member owning key, or "" for an empty ring.
func (r *Ring) Lookup(key []byte) string {
	if len(r.members) == 0 {
		return ""
	}
	return r.members[r.points[r.search(keyHash(r.seed, key))].member]
}

// Sequence returns up to n distinct members in the key's preference order:
// the owner first, then each next distinct member clockwise. Retries and
// hedges walk this sequence, so a key's fallback replica is as stable as
// its primary. n <= 0 or n > len(members) returns all members.
func (r *Ring) Sequence(key []byte, n int) []string {
	if len(r.members) == 0 {
		return nil
	}
	if n <= 0 || n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	seen := make(map[int32]bool, n)
	i := r.search(keyHash(r.seed, key))
	for len(out) < n {
		p := r.points[i]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
		i++
		if i == len(r.points) {
			i = 0
		}
	}
	return out
}

// search finds the index of the first point with hash >= h, wrapping to 0.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// fnv1a hashes the seed's 8 bytes then data with 64-bit FNV-1a. Pure
// arithmetic — no map order, no per-process randomization — so ring
// placement is identical in every process.
func fnv1a(seed uint64, data []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(seed>>(8*i)))) * prime64
	}
	for _, b := range data {
		h = (h ^ uint64(b)) * prime64
	}
	return h
}

// mix64 is the murmur3 finalizer: FNV-1a alone avalanches poorly on short,
// similar inputs (replica names differing in one byte, vnode indices that
// are mostly zero bytes), which skews ring balance badly. The finalizer
// spreads those structured hashes uniformly while staying pure arithmetic —
// identical in every process.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// pointHash places one (member, vnode) point. The vnode index is folded in
// as 4 bytes after the member name.
func pointHash(seed uint64, member string, vnode int) uint64 {
	buf := make([]byte, 0, len(member)+4)
	buf = append(buf, member...)
	buf = append(buf, byte(vnode), byte(vnode>>8), byte(vnode>>16), byte(vnode>>24))
	return mix64(fnv1a(seed, buf))
}

// keyHash places one routing key.
func keyHash(seed uint64, key []byte) uint64 {
	// The seed offset keeps key hashes off the exact point positions members
	// occupy (a key equal to "memberXYZ" + vnode bytes would otherwise
	// collide with a point hash; harmless, but the offset keeps Lookup
	// strictly "first point clockwise").
	return mix64(fnv1a(seed^0x9e3779b97f4a7c15, key))
}
