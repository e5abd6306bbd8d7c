// Package detrand holds the deterministic hashing every seeded decision in
// tcq derives from. It is a leaf package: anything may import it, and it
// imports nothing of tcq.
package detrand

// FNV1a is the 32-bit FNV-1a hash of s — hash/fnv's New32a without the
// allocation. Per-entity RNG seeds, fault scripts, SSI shard choice and
// histogram fallbacks all hash IDs through it, so one ID maps to one
// value everywhere.
func FNV1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
