package client

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// fleetGolden is a fleet-shaped /metrics document as the front-end of a
// sharded rocccserve wrote it: the front server snapshot plus the
// router's, with one in-process shard carrying a full per-shard server
// snapshot (a resident mul_acc with a closed-form cone, and an evicted
// fir). Optional fields are exercised both present (shard 0, mul_acc's
// pool) and absent (shard 1, a TCP shard; the evicted fir). It is an
// older server's document: its kernels carry "backend_configured",
// "evictions", "last_use" and "max_idle", its shards "addr",
// "in_process" and "idle_conns", and its routes "last_use", none of
// which today's servers write. ParseMetrics must keep reading it.
const fleetGolden = `{
  "front": {
    "proto": 2,
    "workers": 8,
    "draining": false,
    "served": 420,
    "faults": 3,
    "sheds": 7,
    "in_flight": 1,
    "kernels": [],
    "conns": [
      {"remote": "127.0.0.1:50001", "opens": 2, "streams": 420, "faults": 3}
    ]
  },
  "fleet": {
    "shards": [
      {
        "index": 0,
        "in_process": true,
        "slots": 48,
        "in_flight": 0,
        "high_water": 12,
        "streams": 300,
        "sheds": 7,
        "idle_conns": 0,
        "server": {
          "proto": 2,
          "workers": 4,
          "draining": false,
          "served": 300,
          "faults": 2,
          "sheds": 0,
          "in_flight": 0,
          "kernels": [
            {
              "kernel": "mul_acc",
              "compiled": true,
              "resident": true,
              "backend_configured": "threaded",
              "closed_form_cone": true,
              "opens": 10,
              "streams": 200,
              "faults": 0,
              "in_flight": 0,
              "high_water": 6,
              "evictions": 0,
              "last_use": 44,
              "max_idle": 8,
              "pool": {"Gets": 200, "Puts": 200, "Rejected": 0}
            },
            {
              "kernel": "fir",
              "compiled": true,
              "resident": false,
              "backend_configured": "interp",
              "closed_form_cone": false,
              "opens": 4,
              "streams": 100,
              "faults": 2,
              "in_flight": 0,
              "high_water": 3,
              "evictions": 1,
              "last_use": 40,
              "max_idle": 8
            }
          ],
          "conns": []
        }
      },
      {
        "index": 1,
        "addr": "10.0.0.7:9944",
        "in_process": false,
        "slots": 48,
        "in_flight": 1,
        "high_water": 9,
        "streams": 120,
        "sheds": 0,
        "idle_conns": 2
      }
    ],
    "kernels": [
      {"kernel": "fir", "shard": 1, "uses": 120, "in_flight": 1, "high_water": 9, "last_use": 43},
      {"kernel": "mul_acc", "shard": 0, "uses": 300, "in_flight": 0, "high_water": 12, "last_use": 44}
    ]
  }
}`

// TestParseMetricsFleetGolden pins the fleet document shape end to end:
// per-shard servers, per-kernel cone plumbing, and the optional fields'
// presence/absence semantics.
func TestParseMetricsFleetGolden(t *testing.T) {
	snap, err := ParseMetrics([]byte(fleetGolden))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Front.Served != 420 || snap.Front.Sheds != 7 || len(snap.Front.Conns) != 1 {
		t.Fatalf("front: %+v", snap.Front)
	}
	if snap.Fleet == nil {
		t.Fatal("fleet section dropped")
	}
	if len(snap.Fleet.Shards) != 2 || len(snap.Fleet.Kernels) != 2 {
		t.Fatalf("shards/kernels: %d/%d", len(snap.Fleet.Shards), len(snap.Fleet.Kernels))
	}

	local := snap.Fleet.Shards[0]
	if local.Server == nil || local.Server.Served != 300 {
		t.Fatalf("local shard: %+v", local)
	}
	kernels := local.Server.Kernels
	if len(kernels) != 2 {
		t.Fatalf("shard kernels: %+v", kernels)
	}
	ma := kernels[0]
	if ma.Kernel != "mul_acc" || !ma.Compiled || !ma.Resident || !ma.ClosedFormCone || ma.Streams != 200 {
		t.Fatalf("mul_acc plumbing: %+v", ma)
	}
	if ma.Pool == nil || ma.Pool.Gets != ma.Pool.Puts+ma.Pool.Rejected {
		t.Fatalf("mul_acc pool: %+v", ma.Pool)
	}

	// Optional fields absent: the evicted fir kernel has no pool; the
	// TCP shard no server.
	fir := kernels[1]
	if fir.Kernel != "fir" || fir.Resident || fir.Pool != nil {
		t.Fatalf("fir: %+v", fir)
	}
	tcp := snap.Fleet.Shards[1]
	if tcp.Server != nil || tcp.Streams != 120 {
		t.Fatalf("tcp shard: %+v", tcp)
	}
}

// TestParseMetricsBareServer: a single-server rocccserve serves the
// bare Metrics object; ParseMetrics must normalize it into a snapshot
// with no fleet section, also from an older server whose kernels carry
// "backend_configured".
func TestParseMetricsBareServer(t *testing.T) {
	body := `{"proto": 2, "workers": 4, "served": 9, "sheds": 1,
	          "kernels": [{"kernel": "fir", "compiled": true, "backend_configured": "interp"}]}`
	snap, err := ParseMetrics([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Fleet != nil {
		t.Fatalf("bare server grew a fleet section: %+v", snap.Fleet)
	}
	if snap.Front.Served != 9 || snap.Front.Sheds != 1 {
		t.Fatalf("front: %+v", snap.Front)
	}
	if len(snap.Front.Kernels) != 1 || snap.Front.Kernels[0].Kernel != "fir" || !snap.Front.Kernels[0].Compiled {
		t.Fatalf("kernels: %+v", snap.Front.Kernels)
	}
}

// TestParseMetricsRoundTrip: a snapshot built from the exported types
// must survive marshal -> ParseMetrics unchanged, so the golden fixture
// can never drift from the structs silently.
func TestParseMetricsRoundTrip(t *testing.T) {
	want, err := ParseMetrics([]byte(fleetGolden))
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseMetrics(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestParseMetricsMalformed: both document shapes reject garbage with a
// diagnosis naming the layer that failed.
func TestParseMetricsMalformed(t *testing.T) {
	if _, err := ParseMetrics([]byte(`[1, 2]`)); err == nil || !strings.Contains(err.Error(), "malformed metrics") {
		t.Fatalf("array accepted: %v", err)
	}
	if _, err := ParseMetrics([]byte(`{"front": 7}`)); err == nil || !strings.Contains(err.Error(), "malformed fleet") {
		t.Fatalf("bad fleet shape accepted: %v", err)
	}
	if _, err := ParseMetrics([]byte(`{"served": "many"}`)); err == nil || !strings.Contains(err.Error(), "malformed server") {
		t.Fatalf("bad server shape accepted: %v", err)
	}
}
