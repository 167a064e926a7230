package stats

import (
	"encoding/json"

	"rules/internal/obs"
)

// Read decodes a trace event outside internal/obs: flagged.
func Read(b []byte) (obs.Event, error) {
	var e obs.Event
	// The call is flagged at its line.
	err := json.Unmarshal(b, &e)
	return e, err
}
