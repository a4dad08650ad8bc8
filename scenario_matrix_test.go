package appshare_test

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"appshare/internal/netsim"
)

// TestScenarioMatrix drives every profile in the simulation matrix —
// burst loss, jitter/reordering, duplication, rate policing, transient
// partitions, late joiners, mid-run evictions, TCP backlog pressure and
// lossy multicast — against a real host and checks every end-of-run
// oracle: framebuffer convergence, RTP continuity, reassembly identity,
// eviction hygiene and counter consistency.
func TestScenarioMatrix(t *testing.T) {
	for _, sc := range netsim.Matrix() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res, err := netsim.Run(sc)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for _, o := range res.Oracles {
				if o.Passed {
					continue
				}
				t.Errorf("oracle %s failed: %s", o.Name, o.Detail)
			}
			t.Logf("seed=%d ticks=%d journal=%d records digest=%s",
				res.Seed, res.TicksRun, len(res.Journal), res.Digest)
		})
	}
}

// frozenDigest is one row of testdata/scenario_digests.txt.
type frozenDigest struct {
	name   string
	seed   int64
	digest string
}

// frozenDigests reads the table of every scenario's journal digest:
// "name seed digest" per line, all of netsim.Matrix() followed by
// netsim.MigrationFamily().
func frozenDigests(t *testing.T) []frozenDigest {
	t.Helper()
	raw, err := os.ReadFile("testdata/scenario_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	var rows []frozenDigest
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var row frozenDigest
		if _, err := fmt.Sscanf(line, "%s %d %s", &row.name, &row.seed, &row.digest); err != nil {
			t.Fatalf("scenario_digests.txt: %q: %v", line, err)
		}
		rows = append(rows, row)
	}
	return rows
}

// TestScenarioDigestsFrozen pins the journal digest of every scenario.
// A digest is the wire bytes of a whole session, so a send-path change
// that claims to leave the wire alone is checked against this table,
// not against prose. A change that means to move bytes regenerates the
// row and says why.
func TestScenarioDigestsFrozen(t *testing.T) {
	rows := frozenDigests(t)
	all := append(netsim.Matrix(), netsim.MigrationFamily()...)
	if len(rows) != len(all) {
		t.Fatalf("scenario_digests.txt has %d rows, the matrix and migration family hold %d scenarios", len(rows), len(all))
	}
	for i, sc := range all {
		row := rows[i]
		if row.name != sc.Name || row.seed != sc.Seed {
			t.Fatalf("row %d is %s/%d, scenario %d is %s/%d", i, row.name, row.seed, i, sc.Name, sc.Seed)
		}
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res, err := netsim.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Digest != row.digest {
				t.Fatalf("digest %s, frozen %s", res.Digest, row.digest)
			}
		})
	}
}

// replayTwice runs one scenario twice and demands byte-identical
// journals.
func replayTwice(t *testing.T, name string) {
	sc, err := netsim.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	a, err := netsim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := netsim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("digest mismatch: %s vs %s", a.Digest, b.Digest)
	}
	if len(a.Journal) != len(b.Journal) {
		t.Fatalf("journal length mismatch: %d vs %d", len(a.Journal), len(b.Journal))
	}
	for i := range a.Journal {
		if a.Journal[i].Offset != b.Journal[i].Offset ||
			!bytes.Equal(a.Journal[i].Packet, b.Journal[i].Packet) {
			t.Fatalf("journal record %d differs between replays", i)
		}
	}
	t.Logf("deterministic across replays: digest=%s (%d records)", a.Digest, len(a.Journal))
}

// TestScenarioDeterminism replays every frozen scenario and demands
// byte-identical journals: same seed, same scenario, same trace. This is
// the property that makes a matrix failure reproducible from nothing but
// the scenario name and seed. Every scenario, not a sample: a digest
// that depends on scheduling can hide in any one of them.
func TestScenarioDeterminism(t *testing.T) {
	for _, row := range frozenDigests(t) {
		name := row.name
		t.Run(name, func(t *testing.T) { replayTwice(t, name) })
	}
}

// TestScenarioMutation is the oracle-of-the-oracles: it plants known
// faults and demands the harness notices. A green matrix is only
// evidence if a red run is demonstrably possible.
func TestScenarioMutation(t *testing.T) {
	t.Run("corrupt-payload", func(t *testing.T) {
		sc, err := netsim.ByName("pristine")
		if err != nil {
			t.Fatal(err)
		}
		sc.Fault = netsim.FaultCorruptPayload
		res, err := netsim.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Passed() {
			t.Fatal("payload corruption between link and viewer went unnoticed by every oracle")
		}
		t.Logf("caught by: %v", res.Failures())
	})
	t.Run("tile-desync", func(t *testing.T) {
		// The eviction-coherence scenario provokes real dictionary skew
		// (a viewer dictionary far smaller than the host's seen-set).
		// With the allowance stripped, the tile-sync oracle must notice
		// the planted desyncs — proving it can turn red at all.
		sc, err := netsim.ByName("tile-evict-coherence")
		if err != nil {
			t.Fatal(err)
		}
		sc.Expect.AllowTileDesyncs = false
		res, err := netsim.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Passed() {
			t.Fatal("host/viewer tile-dictionary desynchronization went unnoticed by every oracle")
		}
		found := false
		for _, o := range res.Oracles {
			if o.Name == "tile-sync" && !o.Passed {
				found = true
			}
		}
		if !found {
			t.Fatalf("desync was caught, but not by the tile-sync oracle: %v", res.Failures())
		}
		t.Logf("caught by: %v", res.Failures())
	})
	t.Run("evict-feedback", func(t *testing.T) {
		// FaultEvictFeedback disables the host's eviction gates
		// (ah.Config.DebugDisableEvictGates) and keeps the evicted
		// viewer's repair loop talking — the refresh-phase eviction race,
		// re-planted on purpose. The evictions oracle must see the
		// post-eviction service (packets after eviction, or sends hitting
		// the closed conn).
		sc, err := netsim.ByName("evict-mid-burst")
		if err != nil {
			t.Fatal(err)
		}
		sc.Fault = netsim.FaultEvictFeedback
		res, err := netsim.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Passed() {
			t.Fatal("feedback serviced inside the eviction race window went unnoticed by every oracle")
		}
		found := false
		for _, o := range res.Oracles {
			if o.Name == "evictions" && !o.Passed {
				found = true
			}
		}
		if !found {
			t.Fatalf("the race was caught, but not by the evictions oracle: %v", res.Failures())
		}
		t.Logf("caught by: %v", res.Failures())
	})
	t.Run("skip-repair", func(t *testing.T) {
		sc, err := netsim.ByName("uniform-loss-20")
		if err != nil {
			t.Fatal(err)
		}
		sc.Fault = netsim.FaultSkipRepair
		res, err := netsim.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Passed() {
			t.Fatal("disabled repair loop on a 20%-loss link went unnoticed by every oracle")
		}
		t.Logf("caught by: %v", res.Failures())
	})
}
