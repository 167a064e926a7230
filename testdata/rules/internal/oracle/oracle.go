// Package oracle builds the production side of a comparison itself and
// decodes events: both allowed here.
package oracle

import (
	"encoding/json"

	"rules/internal/obs"
	"rules/internal/sched"
)

// StandardTarget may call the scheduler constructors.
func StandardTarget() *sched.JAWS { return sched.NewJAWS() }

// Decode is a reference decoder.
func Decode(b []byte) (obs.Event, error) {
	var e obs.Event
	err := json.Unmarshal(b, &e)
	return e, err
}
