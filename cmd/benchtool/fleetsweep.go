package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/trustedcells/tcq/internal/accessctl"
	"github.com/trustedcells/tcq/internal/core"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/querier"
	"github.com/trustedcells/tcq/internal/tdscrypto"
	"github.com/trustedcells/tcq/internal/workload"
)

// The -fleet-sweep mode is the scale-regression harness behind the packed
// fleet: it provisions packed fleets across orders of magnitude, measures
// enrollment heap (bytes per device) and a full collection pass at each
// size, and records one eager (packed-off) baseline so the packed-vs-eager
// memory ratio is pinned in the committed file. An optional budget turns
// the bytes-per-device figure into a CI gate.

// parseFleetSizes reads the comma-separated -fleet-sizes list.
func parseFleetSizes(s string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-fleet-sizes: bad size %q", part)
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("-fleet-sizes: empty list")
	}
	return sizes, nil
}

// eagerBaselineFleet is the packed-off comparison point. Eager fleets burn
// kilobytes per device, so the baseline is taken at the mid size rather
// than at a million devices.
const eagerBaselineFleet = 100_000

// fleetEngine provisions one smart-meter fleet and a credentialed querier.
func fleetEngine(fleet int, packed bool) (*core.Engine, *querier.Querier, error) {
	w := workload.DefaultSmartMeter(9)
	w.Districts = 10
	eng, err := core.NewEngine(core.Config{
		Schema: w.Schema(),
		Policy: &accessctl.Policy{Rules: []accessctl.Rule{
			{Role: "energy-analyst", AggregateOnly: true},
		}},
		AuthorityKey:      tdscrypto.DeriveKey(tdscrypto.Key{}, "auth"),
		MasterKey:         tdscrypto.DeriveKey(tdscrypto.Key{}, "master"),
		AvailableFraction: 0.5,
		Seed:              9,
		PackedFleet:       packed,
	})
	if err != nil {
		return nil, nil, err
	}
	if err := eng.ProvisionFleet(fleet, w.HouseholdDB); err != nil {
		return nil, nil, err
	}
	cred := eng.Authority().Issue("edf", []string{"energy-analyst"},
		time.Unix(1700000000, 0).Add(24*time.Hour))
	q, err := querier.New("edf", eng.K1(), cred, eng.Schema())
	if err != nil {
		return nil, nil, err
	}
	return eng, q, nil
}

// liveHeap forces a collection and returns the live heap size.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// measureProvision builds one fleet and reports the enrollment cost, with
// the retained live heap attributed per device.
func measureProvision(name string, fleet int, packed bool) (benchRecord, *core.Engine, *querier.Querier, error) {
	base := liveHeap()
	start := time.Now()
	eng, q, err := fleetEngine(fleet, packed)
	if err != nil {
		return benchRecord{}, nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	elapsed := time.Since(start)
	retained := int64(liveHeap()) - int64(base)
	if retained < 0 {
		retained = 0
	}
	return benchRecord{
		Name:           name,
		Iters:          1,
		NsPerOp:        float64(elapsed.Nanoseconds()),
		BytesPerOp:     float64(retained),
		BytesPerDevice: float64(retained) / float64(fleet),
	}, eng, q, nil
}

// runFleetSweep measures packed provisioning and collection at each fleet
// size, pins the eager baseline, writes path, prints deltas against any
// previous record at the same path, and enforces the bytes-per-device
// budget when one is set.
func runFleetSweep(path, sizesCSV string, iters int, budget float64, out io.Writer) error {
	if iters < 1 {
		return fmt.Errorf("-fleet-iters must be >= 1 (got %d)", iters)
	}
	sizes, err := parseFleetSizes(sizesCSV)
	if err != nil {
		return err
	}
	report := benchReport{
		Tool:       "benchtool -fleet-sweep",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Fleet:      sizes[len(sizes)-1],
	}
	ctx := context.Background()
	var packedBaseline float64 // bytes/device at eagerBaselineFleet, packed

	for _, fleet := range sizes {
		prov, eng, q, err := measureProvision(
			fmt.Sprintf("provision_packed/fleet=%d", fleet), fleet, true)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "fleet=%-8d provision: %8.2fms  %10.0f B retained  %7.1f B/device\n",
			fleet, prov.NsPerOp/1e6, prov.BytesPerOp, prov.BytesPerDevice)
		report.Benchmarks = append(report.Benchmarks, prov)
		if fleet == eagerBaselineFleet {
			packedBaseline = prov.BytesPerDevice
		}

		rec, err := measure(fmt.Sprintf("collection_packed/S_Agg/fleet=%d", fleet),
			iters, func() error {
				_, err := eng.Execute(ctx, core.Request{
					Querier: q, SQL: benchJSONSQL, Kind: protocol.KindSAgg,
					CollectOnly: true, SkipVerify: true,
				})
				return err
			})
		if err != nil {
			return err
		}
		rec.BytesPerDevice = rec.BytesPerOp / float64(fleet)
		fmt.Fprintf(out, "fleet=%-8d collect:   %8.2fms  %10.0f allocs/op  %7.1f B/device/op\n",
			fleet, rec.NsPerOp/1e6, rec.AllocsPerOp, rec.BytesPerDevice)
		report.Benchmarks = append(report.Benchmarks, rec)

		if budget > 0 && prov.BytesPerDevice > budget {
			printDeltas(path, report, out)
			return fmt.Errorf("fleet=%d retains %.1f B/device, over the %.1f B/device budget",
				fleet, prov.BytesPerDevice, budget)
		}
	}

	// Packed-off baseline: the same workload provisioned eagerly, so the
	// committed file carries the ratio the packed representation buys.
	base, _, _, err := measureProvision(
		fmt.Sprintf("provision_eager/fleet=%d", eagerBaselineFleet), eagerBaselineFleet, false)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "fleet=%-8d eager:     %8.2fms  %10.0f B retained  %7.1f B/device\n",
		eagerBaselineFleet, base.NsPerOp/1e6, base.BytesPerOp, base.BytesPerDevice)
	report.Benchmarks = append(report.Benchmarks, base)
	if packedBaseline > 0 {
		fmt.Fprintf(out, "packed vs eager at fleet=%d: %.1fx less heap per device\n",
			eagerBaselineFleet, base.BytesPerDevice/packedBaseline)
	}

	printDeltas(path, report, out)

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}
