// Package obs is the reporting tier: the one histogram and trace decoder.
package obs

import "encoding/json"

// Histogram is the one histogram type.
type Histogram struct{ counts []int }

// Event is one trace line.
type Event struct{ Kind string }

// ScanTrace is the one decoder of trace events.
func ScanTrace(b []byte) (Event, error) {
	var e Event
	err := json.Unmarshal(b, &e)
	return e, err
}
