package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestLoggerJSONLines checks every line is one JSON object carrying its
// request_id attribute.
func TestLoggerJSONLines(t *testing.T) {
	var sb strings.Builder
	lg := NewLogger(&sb)
	lg.Info("request served", "request_id", "r0123", "status", 200)
	lg.Warn("queue full", "request_id", "r0123")

	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), sb.String())
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d not JSON: %v (%s)", i, err, line)
		}
		if m["request_id"] != "r0123" {
			t.Fatalf("line %d missing request_id: %s", i, line)
		}
		if m["msg"] == "" || m["level"] == "" {
			t.Fatalf("line %d missing msg/level: %s", i, line)
		}
	}
	if !strings.Contains(lines[0], `"status":200`) {
		t.Fatalf("attribute lost: %s", lines[0])
	}
}

// TestLoggerNilSafe pins the disabled path.
func TestLoggerNilSafe(t *testing.T) {
	var lg *Logger
	if lg.Enabled() {
		t.Fatal("nil logger reports enabled")
	}
	lg.Info("x")
	lg.Warn("x") // must not panic
}
