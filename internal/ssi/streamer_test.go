package ssi

import (
	"reflect"
	"testing"
	"time"

	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/protocol"
)

// StreamBuild is the canonical first-step build of Basic and S_Agg: the
// chunked store cut into deposit-order windows. PartitionReady and
// TakePartition read those windows back while collection is still
// running; the engine no longer calls them, but they stay on *SSI and
// *Sharded for callers that time the store from outside. The contract
// under test: windows are pure reads of committed prefixes, in deposit
// order, and StreamBuild stashes its build for the quarantine
// Repartition path like every other builder.

// streamTuples builds n distinct wire tuples.
func streamTuples(n int) []protocol.WireTuple {
	ws := make([]protocol.WireTuple, 0, n)
	for i := 0; i < n; i++ {
		b := byte('a' + i)
		ws = append(ws, protocol.WireTuple{
			Tag:        []byte{b},
			Ciphertext: []byte{b, b, b},
			Digest:     []byte{b ^ 0xff},
		})
	}
	return ws
}

func TestStreamerWindows(t *testing.T) {
	s := New()
	now := time.Unix(0, 0)
	if err := s.PostQuery(&protocol.QueryPost{ID: "q-str", PostedAt: now}, now); err != nil {
		t.Fatal(err)
	}
	all := streamTuples(10)
	const per = 4

	// Windows appear exactly as full multiples of per are committed.
	deposited := 0
	for _, batch := range [][]protocol.WireTuple{all[:3], all[3:5], all[5:9], all[9:]} {
		if _, _, err := s.Deposit("q-str", batch, now); err != nil {
			t.Fatal(err)
		}
		deposited += len(batch)
		if got, want := s.PartitionReady("q-str", per), deposited/per; got != want {
			t.Fatalf("after %d tuples: PartitionReady = %d, want %d", deposited, got, want)
		}
	}

	// TakePartition hands out deposit-order windows and is a pure read:
	// repeated calls agree, and nothing about the store changes.
	for k := 0; k < 2; k++ {
		want := all[k*per : (k+1)*per]
		got := s.TakePartition("q-str", k, per)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("window %d = %v, want %v", k, got, want)
		}
		if again := s.TakePartition("q-str", k, per); !reflect.DeepEqual(again, got) {
			t.Fatalf("window %d not repeatable", k)
		}
	}
	if n := s.CollectedCount("q-str"); n != len(all) {
		t.Fatalf("reads mutated the store: count = %d", n)
	}

	// StreamBuild chunks the whole store in deposit order, trailing
	// partial included, and its concatenation is exactly the store.
	parts := s.StreamBuild("q-str", per)
	if len(parts) != 3 || len(parts[0]) != per || len(parts[1]) != per || len(parts[2]) != 2 {
		t.Fatalf("StreamBuild shape = %v", partLens(parts))
	}
	var flat []protocol.WireTuple
	for _, p := range parts {
		flat = append(flat, p...)
	}
	if !reflect.DeepEqual(flat, all) {
		t.Fatalf("StreamBuild reordered the store:\ngot:  %v\nwant: %v", flat, all)
	}

	// The build is stashed: the quarantine retry re-issues it.
	if re := s.Repartition("q-str"); !reflect.DeepEqual(re, parts) {
		t.Fatalf("Repartition does not re-issue the stream build:\ngot:  %v\nwant: %v", re, parts)
	}
}

func TestStreamerEmpty(t *testing.T) {
	s := New()
	now := time.Unix(0, 0)
	if err := s.PostQuery(&protocol.QueryPost{ID: "q-mt", PostedAt: now}, now); err != nil {
		t.Fatal(err)
	}
	if n := s.PartitionReady("q-mt", 4); n != 0 {
		t.Errorf("empty store ready = %d", n)
	}
	if parts := s.StreamBuild("q-mt", 4); parts != nil {
		t.Errorf("empty StreamBuild = %v, want nil", parts)
	}
	if n := s.PartitionReady("q-none", 4); n != 0 {
		t.Errorf("unknown query ready = %d", n)
	}
}

func TestShardedStreamer(t *testing.T) {
	s := NewSharded(4)
	now := time.Unix(0, 0)
	all := streamTuples(6)
	// Two queries on (very likely) different shards: windows must route by
	// query ID and never bleed across.
	for i, id := range []string{"q-a", "q-b"} {
		if err := s.PostQuery(&protocol.QueryPost{ID: id, PostedAt: now}, now); err != nil {
			t.Fatal(err)
		}
		dep := protocol.NewDeposit(id, "dev", 1, 0, all[i*3:i*3+3])
		if _, _, err := s.DepositEnvelope(id, dep, now); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range []string{"q-a", "q-b"} {
		if n := s.PartitionReady(id, 3); n != 1 {
			t.Errorf("%s ready = %d, want 1", id, n)
		}
		want := all[i*3 : i*3+3]
		if got := s.TakePartition(id, 0, 3); !reflect.DeepEqual(got, want) {
			t.Errorf("%s window = %v, want %v", id, got, want)
		}
		if parts := s.StreamBuild(id, 3); len(parts) != 1 || !reflect.DeepEqual(parts[0], want) {
			t.Errorf("%s StreamBuild = %v, want [%v]", id, parts, want)
		}
	}
}

// TestAdversaryStreamBuild: a scripted adversary tampers with StreamBuild
// like any other partition build, while the inner stash stays honest — the
// exact shape the engine's quarantine/Repartition recovery relies on.
func TestAdversaryStreamBuild(t *testing.T) {
	s := New()
	now := time.Unix(0, 0)
	if err := s.PostQuery(&protocol.QueryPost{ID: "q-adv", PostedAt: now}, now); err != nil {
		t.Fatal(err)
	}
	all := streamTuples(6)
	if _, _, err := s.Deposit("q-adv", all, now); err != nil {
		t.Fatal(err)
	}
	a := NewAdversary(s, script(faultplan.SSIDropTuple), 21, "q-adv")

	honest := multiset([][]protocol.WireTuple{all})
	got := a.StreamBuild("q-adv", 3)
	if reflect.DeepEqual(multiset(got), honest) {
		t.Fatalf("scripted adversary handed out an honest stream build; strikes %v", a.Strikes())
	}
	if len(a.Strikes()) != 1 {
		t.Fatalf("strikes = %v, want exactly one", a.Strikes())
	}
	// Recovery: the re-issue comes from the honest stash.
	if re := a.Repartition("q-adv"); !reflect.DeepEqual(multiset(re), honest) {
		t.Fatalf("re-issued stream build still tampered: %v", multiset(re))
	}
}

func partLens(parts [][]protocol.WireTuple) []int {
	ls := make([]int, len(parts))
	for i, p := range parts {
		ls[i] = len(p)
	}
	return ls
}
