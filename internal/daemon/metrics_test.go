package daemon

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"atom"
)

// TestDebugMux pins the routing contract of the shared debug listener:
// /metrics only when a collector is attached, /debug/pprof/ only when
// profiling is requested, and an index line advertising what's mounted.
func TestDebugMux(t *testing.T) {
	get := func(t *testing.T, mux *httptest.Server, path string) (int, string) {
		t.Helper()
		resp, err := mux.Client().Get(mux.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	t.Run("metrics only", func(t *testing.T) {
		srv := httptest.NewServer(debugMux(NewMetrics(), false))
		defer srv.Close()
		if code, body := get(t, srv, "/metrics"); code != 200 || !strings.Contains(body, "atom_rounds_opened_total") {
			t.Fatalf("/metrics: code=%d body=%q", code, body[:min(len(body), 120)])
		}
		// The bare-/ index is a catch-all, so unmounted paths still
		// answer 200 — with the index line, not the real endpoint.
		if _, body := get(t, srv, "/debug/pprof/"); !strings.Contains(body, "atomd debug:") {
			t.Fatalf("/debug/pprof/ served real content without withPprof: %q", body[:min(len(body), 120)])
		}
		if _, body := get(t, srv, "/"); !strings.Contains(body, "/metrics") {
			t.Fatalf("index missing /metrics: %q", body)
		}
	})

	t.Run("pprof only", func(t *testing.T) {
		srv := httptest.NewServer(debugMux(nil, true))
		defer srv.Close()
		if code, body := get(t, srv, "/debug/pprof/"); code != 200 || !strings.Contains(body, "profile") {
			t.Fatalf("/debug/pprof/: code=%d body=%q", code, body[:min(len(body), 120)])
		}
		if _, body := get(t, srv, "/metrics"); strings.Contains(body, "atom_rounds_opened_total") {
			t.Fatal("/metrics served with nil collector")
		}
	})

	t.Run("drain series", func(t *testing.T) {
		m := NewMetrics()
		obs := m.Instrument(nil)
		obs.RoundMixed(atom.RoundStats{Messages: 3, Drain: 1500 * time.Millisecond})
		obs.RoundMixed(atom.RoundStats{Messages: 2, Drain: 500 * time.Millisecond})

		rec := httptest.NewRecorder()
		m.ServeHTTP(rec, nil)
		body := rec.Body.String()
		if !strings.Contains(body, "atom_drain_ns 2000000000") {
			t.Fatalf("drain counter did not accumulate seal→publish time: %q", body)
		}
	})

	t.Run("shared listener", func(t *testing.T) {
		srv := httptest.NewServer(debugMux(NewMetrics(), true))
		defer srv.Close()
		if code, _ := get(t, srv, "/metrics"); code != 200 {
			t.Fatalf("/metrics on shared mux: code=%d", code)
		}
		if code, _ := get(t, srv, "/debug/pprof/cmdline"); code != 200 {
			t.Fatalf("/debug/pprof/cmdline on shared mux: code=%d", code)
		}
		if _, body := get(t, srv, "/"); !strings.Contains(body, "/metrics") || !strings.Contains(body, "/debug/pprof/") {
			t.Fatalf("index missing endpoints: %q", body)
		}
	})
}
