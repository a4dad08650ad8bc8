package appshare_test

import (
	"bytes"
	"testing"

	"appshare/internal/netsim"
)

// TestMigrationFamily drives every partition-then-migrate scenario:
// the broker loses the host's heartbeats, sweeps the session to the
// standby from the last checkpoint, and every viewer's packet conn is
// resumed against the new host mid-stream. The migration oracle pins
// the failover tick to FailAtTick+detect, demands the floor holder
// survived the handoff (the queued requester is granted after the
// post-migration release), and — the draft's scaling claim — that the
// standby served exactly zero full-refresh encodes beyond the fresh
// joins that arrived after the switch: resumed viewers continue from
// the checkpointed packetizer state instead of being repainted.
func TestMigrationFamily(t *testing.T) {
	for _, sc := range netsim.MigrationFamily() {
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

// TestMigrationDeterminism replays migration scenarios and demands
// byte-identical journals: the kill, the dead-window black-holes, the
// sweep and the resumed streams all land on the same bytes at the same
// offsets. A failover bug is only debuggable if the failover replays.
func TestMigrationDeterminism(t *testing.T) {
	for _, name := range []string{"migrate-pristine", "migrate-tiles", "migrate-viewer-partition", "migrate-shards"} {
		name := name
		t.Run(name, func(t *testing.T) { replayTwice(t, name) })
	}
}

// TestMigrationMutation plants known handoff faults and demands the
// oracles notice — the migration suite's proof that its green runs
// mean something.
func TestMigrationMutation(t *testing.T) {
	t.Run("corrupt-snapshot", func(t *testing.T) {
		// A checkpoint whose packetizer sequence was bumped restores the
		// standby one packet ahead of the wire: every resumed viewer
		// sees a sequence discontinuity that is neither a fresh send nor
		// a logged retransmission.
		sc, err := netsim.ByName("migrate-pristine")
		if err != nil {
			t.Fatal(err)
		}
		sc.Fault = netsim.FaultCorruptSnapshot
		res, err := netsim.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Passed() {
			t.Fatal("corrupted checkpoint restored onto the standby went unnoticed by every oracle")
		}
		t.Logf("caught by: %v", res.Failures())
	})
	t.Run("drop-floor-state", func(t *testing.T) {
		// Losing the BFCP floor state across the handoff means the
		// pre-failover holder's release fails on the standby and the
		// queued requester is never granted — exactly what the floor
		// custody probe exists to see.
		sc, err := netsim.ByName("migrate-pristine")
		if err != nil {
			t.Fatal(err)
		}
		sc.Fault = netsim.FaultDropFloorState
		res, err := netsim.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Passed() {
			t.Fatal("dropped floor state across the handoff went unnoticed by every oracle")
		}
		found := false
		for _, o := range res.Oracles {
			if o.Name == "migration" && !o.Passed {
				found = true
			}
		}
		if !found {
			t.Fatalf("the lost custody was caught, but not by the migration oracle: %v", res.Failures())
		}
		t.Logf("caught by: %v", res.Failures())
	})
}

// TestBrokerSurvivorJournalIdentity runs the same scenario with a
// broker monitoring a host that never fails and without any broker at
// all, and demands byte-identical journals: registration, heartbeats
// and checkpoint capture must be pure observers of the data path.
func TestBrokerSurvivorJournalIdentity(t *testing.T) {
	sc, err := netsim.ByName("migrate-pristine")
	if err != nil {
		t.Fatal(err)
	}
	sc.Broker = &netsim.BrokerSpec{FailAtTick: 0}
	a, err := netsim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Passed() {
		t.Fatalf("broker-observed run failed its own oracles: %v", a.Failures())
	}
	sc.Broker = nil
	b, err := netsim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Passed() {
		t.Fatalf("broker-free run failed its own oracles: %v", b.Failures())
	}
	if a.Digest != b.Digest {
		t.Fatalf("broker presence perturbed the wire: digest %s with broker vs %s without", a.Digest, b.Digest)
	}
	if len(a.Journal) != len(b.Journal) {
		t.Fatalf("journal length mismatch: %d with broker vs %d without", len(a.Journal), len(b.Journal))
	}
	for i := range a.Journal {
		if a.Journal[i].Offset != b.Journal[i].Offset ||
			!bytes.Equal(a.Journal[i].Packet, b.Journal[i].Packet) {
			t.Fatalf("journal record %d differs between broker-observed and broker-free runs", i)
		}
	}
	t.Logf("broker is wire-invisible on a healthy host: digest=%s (%d records)", a.Digest, len(a.Journal))
}
