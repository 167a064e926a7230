package workload

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// fileHeader identifies a serialized trace and its format version.
type fileHeader struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
}

const (
	traceMagic   = "jaws-trace"
	traceVersion = 1
)

// envelope is the on-disk layout: header plus the workload body.
type envelope struct {
	fileHeader
	Workload *Workload `json:"workload"`
}

// Save writes the workload as (optionally gzip-compressed) JSON. A
// workload saved by jaws -trace-save is replayed by jaws -trace, so
// experiments can be archived and re-run bit-for-bit.
func Save(w io.Writer, wl *Workload, compress bool) error {
	var out io.Writer = w
	var gz *gzip.Writer
	if compress {
		gz = gzip.NewWriter(w)
		out = gz
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(envelope{
		fileHeader: fileHeader{Magic: traceMagic, Version: traceVersion},
		Workload:   wl,
	}); err != nil {
		return fmt.Errorf("workload: encode trace: %w", err)
	}
	if gz != nil {
		return gz.Close()
	}
	return nil
}

// Load reads a trace written by Save, transparently handling gzip.
func Load(r io.Reader) (*Workload, error) {
	br := newPeekReader(r)
	head, err := br.peek(2)
	if err != nil {
		return nil, fmt.Errorf("workload: read trace: %w", err)
	}
	var in io.Reader = br
	if head[0] == 0x1f && head[1] == 0x8b { // gzip magic
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("workload: open gzip trace: %w", err)
		}
		defer gz.Close()
		in = gz
	}
	var env envelope
	if err := json.NewDecoder(in).Decode(&env); err != nil {
		return nil, fmt.Errorf("workload: decode trace: %w", err)
	}
	if env.Magic != traceMagic {
		return nil, fmt.Errorf("workload: not a jaws trace (magic %q)", env.Magic)
	}
	if env.Version != traceVersion {
		return nil, fmt.Errorf("workload: unsupported trace version %d", env.Version)
	}
	if env.Workload == nil {
		return nil, fmt.Errorf("workload: trace has no body")
	}
	for _, j := range env.Workload.Jobs {
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("workload: corrupt trace: %w", err)
		}
	}
	return env.Workload, nil
}

// peekReader lets Load sniff the gzip magic without consuming it.
type peekReader struct {
	r   io.Reader
	buf []byte
}

func newPeekReader(r io.Reader) *peekReader { return &peekReader{r: r} }

func (p *peekReader) peek(n int) ([]byte, error) {
	for len(p.buf) < n {
		tmp := make([]byte, n-len(p.buf))
		m, err := p.r.Read(tmp)
		p.buf = append(p.buf, tmp[:m]...)
		if err != nil {
			if err == io.EOF && len(p.buf) >= n {
				break
			}
			return nil, err
		}
	}
	return p.buf[:n], nil
}

func (p *peekReader) Read(b []byte) (int, error) {
	if len(p.buf) > 0 {
		n := copy(b, p.buf)
		p.buf = p.buf[n:]
		return n, nil
	}
	return p.r.Read(b)
}

// Describe renders a one-paragraph summary of the trace for CLI output.
func Describe(w *Workload) string {
	var b strings.Builder
	ordered, batched := 0, 0
	for _, j := range w.Jobs {
		if len(j.Queries) > 1 && j.Type.String() == "ordered" {
			ordered++
		} else {
			batched++
		}
	}
	span := "empty"
	if len(w.Jobs) > 0 {
		span = w.Jobs[len(w.Jobs)-1].Queries[0].Arrival.String()
	}
	fmt.Fprintf(&b, "%d jobs (%d ordered, %d batched/lone), %d queries, arrival span %s",
		len(w.Jobs), ordered, batched, w.TotalQueries(), span)
	return b.String()
}
