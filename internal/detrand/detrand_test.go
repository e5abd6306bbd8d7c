package detrand

import (
	"hash/fnv"
	"testing"
)

// TestFNV1aMatchesStdlib pins the helper to hash/fnv's 32-bit FNV-1a, so
// every seed, shard and fault script derived from it stays put.
func TestFNV1aMatchesStdlib(t *testing.T) {
	for _, s := range []string{"", "a", "tds-00003", "q-0001", "Q7\x00\xff", "ünïcode"} {
		h := fnv.New32a()
		h.Write([]byte(s))
		if got, want := FNV1a(s), h.Sum32(); got != want {
			t.Errorf("FNV1a(%q) = %#x, want %#x", s, got, want)
		}
	}
}
