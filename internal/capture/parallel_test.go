package capture

import (
	"bytes"
	"fmt"
	"image/color"
	"testing"

	"appshare/internal/display"
	"appshare/internal/region"
)

// paintScene applies a deterministic mix of desktop activity: several
// windows, scattered fills, text, a scroll and cursor motion. Two calls
// on two fresh desktops produce identical pixel state and journals.
func paintScene(desk *display.Desktop) []*display.Window {
	var wins []*display.Window
	for i := 0; i < 3; i++ {
		w := desk.CreateWindow(1, region.XYWH(40+i*210, 30+i*110, 200, 160))
		wins = append(wins, w)
	}
	return wins
}

func stirScene(desk *display.Desktop, wins []*display.Window, round int) {
	for i, w := range wins {
		for k := 0; k < 4; k++ {
			c := color.RGBA{R: byte(round * 31), G: byte(i * 67), B: byte(k * 53), A: 255}
			w.Fill(region.XYWH(10+k*45, 12+(round%3)*40, 40, 30), c)
		}
		w.DrawText(8, 120, fmt.Sprintf("round %d win %d", round, i), color.RGBA{A: 255})
	}
	wins[0].Scroll(region.XYWH(0, 0, 200, 160), -8, color.RGBA{R: 250, G: 250, B: 250, A: 255})
	desk.MoveCursor(30+round*5, 40+round*3)
}

// marshalBatch renders a batch to comparable bytes: message order and
// payload content both matter.
func marshalBatch(t *testing.T, b *Batch) []byte {
	t.Helper()
	var buf bytes.Buffer
	if b.WMInfo != nil {
		raw, err := b.WMInfo.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		buf.WriteString("wm:")
		buf.Write(raw)
	}
	for _, mv := range b.Moves {
		raw, err := mv.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		buf.WriteString("mv:")
		buf.Write(raw)
	}
	for _, up := range b.Updates {
		frags, err := up.Msg.Fragments(1200)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "up:%v:", up.Rect)
		for _, f := range frags {
			buf.Write(f.Payload)
		}
	}
	if b.Pointer != nil {
		frags, err := b.Pointer.Fragments(1200)
		if err != nil {
			t.Fatal(err)
		}
		buf.WriteString("ptr:")
		for _, f := range frags {
			buf.Write(f.Payload)
		}
	}
	return buf.Bytes()
}

// TestParallelEncodeDeterminism proves the worker pool is invisible on
// the wire: parallel-encoded batches are byte-identical to serial ones
// (same message order, same payloads). Run with -cpu 1,4 to exercise
// both a starved and a parallel scheduler. The banded-photo leg streams
// video_relay's frames, each one rectangle split into bands whose
// photographic ones take the BestSpeed encoder.
func TestParallelEncodeDeterminism(t *testing.T) {
	type run struct {
		name string
		opts Options
	}
	runs := []run{
		{"serial", Options{EncodeWorkers: -1, CacheBytes: -1}},
		{"per-cpu", Options{EncodeWorkers: 0, CacheBytes: -1}},
		{"parallel", Options{EncodeWorkers: 8, CacheBytes: -1}},
		{"parallel-cached", Options{EncodeWorkers: 8}},
		{"serial-cached", Options{EncodeWorkers: -1}},
	}
	// The banded-photo leg skips the full refresh (never banded) and
	// runs fewer rounds: a photo deflate is slow under -race.
	scenes := []struct {
		name    string
		rounds  int
		refresh bool
		stir    func(desk *display.Desktop, wins []*display.Window, round int)
	}{
		{"mixed", 5, true, stirScene},
		{"banded-photo", 3, false, func(desk *display.Desktop, wins []*display.Window, round int) {
			blitPhoto(wins[0], 4, 2+round, int64(round))
			desk.MoveCursor(60+round*5, 140)
		}},
	}
	for _, sc := range scenes {
		var want [][]byte
		for ri, r := range runs {
			desk := display.NewDesktop(800, 600)
			wins := paintScene(desk)
			if sc.name == "banded-photo" {
				wins = []*display.Window{desk.CreateWindow(2, region.XYWH(30, 40, 350, 262))}
			}
			pipe, err := New(desk, r.opts)
			if err != nil {
				t.Fatal(err)
			}
			var got [][]byte
			for round := 0; round < sc.rounds; round++ {
				sc.stir(desk, wins, round)
				b, err := pipe.Tick()
				if err != nil {
					t.Fatal(err)
				}
				if sc.name == "banded-photo" && len(b.Updates) < 2 {
					t.Fatalf("%s round %d: %d updates, want the frame in bands", r.name, round, len(b.Updates))
				}
				got = append(got, marshalBatch(t, b))
				if !sc.refresh {
					continue
				}
				fb, err := pipe.FullRefresh()
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, marshalBatch(t, fb))
			}
			if ri == 0 {
				want = got
				continue
			}
			for i := range want {
				if !bytes.Equal(want[i], got[i]) {
					t.Fatalf("%s/%s: batch %d differs from serial baseline (len %d vs %d)",
						sc.name, r.name, i, len(got[i]), len(want[i]))
				}
			}
		}
	}
}

// TestRefreshCacheHits verifies the content-addressed cache makes
// repeated full refreshes (late joiners, PLI storms) near-free: after
// the first refresh encodes each window once, subsequent refreshes are
// all cache hits and zero new encodes.
func TestRefreshCacheHits(t *testing.T) {
	desk := display.NewDesktop(800, 600)
	wins := paintScene(desk)
	stirScene(desk, wins, 0)
	pipe, err := New(desk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Tick(); err != nil {
		t.Fatal(err)
	}
	first, err := pipe.FullRefresh()
	if err != nil {
		t.Fatal(err)
	}
	after1 := pipe.Metrics()
	for i := 0; i < 8; i++ {
		again, err := pipe.FullRefresh()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalBatch(t, first), marshalBatch(t, again)) {
			t.Fatalf("refresh %d differs from first refresh", i)
		}
	}
	afterN := pipe.Metrics()
	if afterN.Cache.Misses != after1.Cache.Misses {
		t.Fatalf("repeated refreshes re-encoded: misses %d -> %d",
			after1.Cache.Misses, afterN.Cache.Misses)
	}
	wantHits := after1.Cache.Hits + 8*uint64(len(first.Updates)+1) // +1: pointer sprite
	if afterN.Cache.Hits != wantHits {
		t.Fatalf("cache hits = %d, want %d", afterN.Cache.Hits, wantHits)
	}
}

// TestCacheDisabledStillCorrect pins the CacheBytes<0 escape hatch.
func TestCacheDisabledStillCorrect(t *testing.T) {
	desk := display.NewDesktop(320, 240)
	w := desk.CreateWindow(1, region.XYWH(10, 10, 100, 80))
	w.Fill(region.XYWH(0, 0, 100, 80), color.RGBA{R: 9, G: 8, B: 7, A: 255})
	pipe, err := New(desk, Options{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := pipe.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Updates) == 0 {
		t.Fatal("no updates captured")
	}
	if m := pipe.Metrics(); m.Cache.Hits != 0 || m.Cache.Misses != 0 {
		t.Fatalf("disabled cache recorded traffic: %+v", m.Cache)
	}
}
