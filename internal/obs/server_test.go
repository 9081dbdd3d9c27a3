package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"log/slog"
)

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("server_test_total", "h", L("method", "mr")).Add(7)
	srv, err := StartServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content-type = %q", ct)
	}
	if !strings.Contains(string(body), `server_test_total{method="mr"} 7`) {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Uptime string `json:"uptime"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Uptime == "" {
		t.Errorf("/healthz = %+v", health)
	}

	resp, err = http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status = %d", resp.StatusCode)
	}

	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	var nilSrv *Server
	if nilSrv.Addr() != "" || nilSrv.Close() != nil {
		t.Error("nil server should be inert")
	}
}

func TestLoggers(t *testing.T) {
	var sb strings.Builder
	logger := NewLogger(&sb, slog.LevelInfo, slog.String("cmd", "test"))
	logger.Debug("hidden")
	logger.Info("visible", slog.Int("n", 3))
	out := sb.String()
	if strings.Contains(out, "hidden") {
		t.Error("debug line should be filtered at info level")
	}
	if !strings.Contains(out, "visible") || !strings.Contains(out, "cmd=test") || !strings.Contains(out, "n=3") {
		t.Errorf("log output = %q", out)
	}
}
