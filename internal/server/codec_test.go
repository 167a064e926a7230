package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"jaws"
	"jaws/internal/engine"
)

// refDecode is the decoder the codec replaced — encoding/json's strict
// decode into the wire type — plus the two tightenings, checked the slow
// way: nothing but whitespace after the value, and no two keys of one
// object naming the same field.
func refDecode(b []byte) (QueryRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var in QueryRequest
	if err := dec.Decode(&in); err != nil {
		return in, err
	}
	end := dec.InputOffset()
	if rest := bytes.Trim(b[end:], " \t\r\n"); len(rest) != 0 {
		return in, fmt.Errorf("data after the request: %q", rest)
	}
	if hasDuplicateKey(json.NewDecoder(bytes.NewReader(b[:end]))) {
		return in, fmt.Errorf("duplicate key")
	}
	return in, nil
}

// hasDuplicateKey consumes one value from dec, which must hold valid JSON,
// and reports whether any object in it has two keys that select the same
// struct field under encoding/json's matching (equal under case folding).
func hasDuplicateKey(dec *json.Decoder) bool {
	tok, err := dec.Token()
	if err != nil {
		panic(err)
	}
	delim, ok := tok.(json.Delim)
	if !ok {
		return false
	}
	dup := false
	var keys []string
	for dec.More() {
		if delim == '{' {
			k, _ := dec.Token()
			for _, prev := range keys {
				dup = dup || strings.EqualFold(prev, k.(string))
			}
			keys = append(keys, k.(string))
		}
		dup = hasDuplicateKey(dec) || dup
	}
	dec.Token() // the closing bracket
	return dup
}

// checkDecodeAgrees holds DecodeQueryRequest to refDecode on one body:
// same verdict and, on accept, the same request down to the bits of every
// coordinate, whether the body arrives at once, a byte at a time, or with
// the end of the input reported along with its last bytes.
func checkDecodeAgrees(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := refDecode(body)
	for name, r := range map[string]io.Reader{
		"whole":       bytes.NewReader(body),
		"byte-a-read": iotest.OneByteReader(bytes.NewReader(body)),
		"data+EOF":    iotest.DataErrReader(bytes.NewReader(body)),
	} {
		got, err := DecodeQueryRequest(r)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s: body %q: codec says %v, encoding/json says %v", name, body, err, wantErr)
		}
		if err != nil {
			continue
		}
		if got.Step != want.Step || got.Kernel != want.Kernel || got.TimeoutMS != want.TimeoutMS ||
			got.DerivSteps != want.DerivSteps || len(got.Points) != len(want.Points) {
			t.Fatalf("%s: body %q: decoded %+v, encoding/json %+v", name, body, got, want)
		}
		for i, p := range got.Points {
			w := want.Points[i]
			if math.Float64bits(p.X) != math.Float64bits(w.X) || math.Float64bits(p.Y) != math.Float64bits(w.Y) ||
				math.Float64bits(p.Z) != math.Float64bits(w.Z) {
				t.Fatalf("%s: body %q: point %d = %v, encoding/json %v", name, body, i, p, w)
			}
		}
	}
}

// decodeSeeds are bodies chosen to sit on the edges of what encoding/json
// accepts into a QueryRequest.
var decodeSeeds = []string{
	okBody,
	`{"step":1,"kernel":"lag4","points":[{"x":1,"y":2,"z":3}]}`,
	`{"step":1,"kernel":"la\/g\n\"","points":[{"x":1}]}`,
	`{"STEP":1,"Kernel":"lag8","POINTS":[{"X":1,"Y":2,"Z":3}],"Timeout_MS":5,"DERIV_STEPS":2}`,
	"{\"ſtep\":1,\"Kernel\":\"lag6\",\"pointſ\":[{\"x\":1}]}", // ſ and K fold to s and k
	`{"step":1,"points":null}`,
	`{"step":null,"kernel":null,"points":[null,{"x":null,"y":2},null],"timeout_ms":null,"deriv_steps":null}`,
	`null`,
	` null `,
	`{}`,
	" \t\r\n{ \"step\" : 1 , \"points\" : [ { \"x\" : 1 } , { } ] } \r\n",
	`{"step":1,"points":[{"x":1e999}]}`,
	`{"step":1,"points":[{"x":-1e999}]}`,
	`{"step":1,"points":[{"x":1e-999,"y":-0,"z":-0.0}]}`,
	`{"step":1,"points":[{"x":0.1e1,"y":1E+2,"z":1.5e-3}]}`,
	`{"step":1,"points":[{"x":4.9e-324,"y":1.7976931348623157e308,"z":2.2250738585072014e-308}]}`,
	`{"step":1,"points":[{"x":01}]}`,
	`{"step":1,"points":[{"x":1.}]}`,
	`{"step":1,"points":[{"x":.5}]}`,
	`{"step":1,"points":[{"x":+1}]}`,
	`{"step":1,"points":[{"x":-}]}`,
	`{"step":1,"points":[{"x":1e}]}`,
	`{"step":1,"points":[{"x":1e+}]}`,
	`{"step":1,"points":[{"x":"1"}]}`,
	`{"step":1,"points":[{"x":true}]}`,
	`{"step":1,"points":[{"x":[1]}]}`,
	`{"step":1,"points":[[1,2,3]]}`,
	`{"step":1,"points":[1]}`,
	`{"step":1,"points":{"x":1}}`,
	`{"step":1,"points":"none"}`,
	`{"step":1.0,"points":[{"x":1}]}`,
	`{"step":1e0,"points":[{"x":1}]}`,
	`{"step":-0,"points":[{"x":1}]}`,
	`{"step":9223372036854775807,"timeout_ms":-9223372036854775808}`,
	`{"step":9223372036854775808}`,
	`{"timeout_ms":9223372036854775808}`,
	`{"step":"1"}`,
	`{"step":true}`,
	`{"step":{}}`,
	`{"kernel":1}`,
	`{"kernel":["lag4"]}`,
	`{"kernel":"😀 \ud83d \ude00 \ud83d😀 \udc00\ud800"}`,
	`{"kernel":"\ud800"}`,
	`{"kernel":"\ud800x"}`,
	`{"kernel":"\ud800\n"}`,
	"{\"kernel\":\"\u00e9\u20ac\ufffd \"}",
	"{\"kernel\":\"caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80\"}",
	"{\"kernel\":\"\xff\xfe \xe2\x82 \xe2\\u0082\xac \xed\xa0\x80 \xc0\xaf\"}", // invalid UTF-8, byte by byte
	"{\"kernel\":\"a\tb\"}",
	"{\"kernel\":\"a\x00b\"}",
	`{"kernel":"\x41"}`,
	`{"kernel":"\'"}`,
	`{"kernel":"\u12"}`,
	`{"kernel":"\u12g4"}`,
	`{"kernel":"` + strings.Repeat("k", 100) + `"}`,
	`{"step":` + strings.Repeat("0", 100) + `}`,
	`{"points":[{"x":1` + strings.Repeat("0", 100) + `}]}`,
	`{"points":[{"x":0.` + strings.Repeat("0", 100) + `1}]}`,
	`{"frobnicate":{"a":[1,{"b":null}]}}`,
	`{"points":[{"w":1}]}`,
	`{"points":[{"x":{"step":1}}]}`,
	`{"step":1,"step":1}`,
	`{"step":1,"Step":1}`,
	`{"points":[],"points":[]}`,
	`{"points":[{"x":1,"x":1}]}`,
	`{"points":[{"x":1},{"x":1}]}`,
	`{"step":1}{"step":2}`,
	`{"step":1} x`,
	`{"step":1},`,
	`{"step":1}]`,
	`null null`,
	`nul`,
	`nullx`,
	`{"step":1,}`,
	`{,"step":1}`,
	`{"step" 1}`,
	`{"step":1 "kernel":"lag4"}`,
	`{"points":[{"x":1},]}`,
	`{"points":[,{"x":1}]}`,
	`{"points":[{"x":1}{"x":1}]}`,
	`{"points":[nul]}`,
	`{step:1}`,
	`{'step':1}`,
	`[]`,
	`[{"step":1}]`,
	`1`,
	`"step"`,
	`true`,
	``,
	` `,
	"\ufeff{}",
	"{\"step\":1}\x00",
	"{\"step\":\x001}",
}

// FuzzDecodeQuery is the differential test of the request decoder against
// encoding/json over the kept wire types.
func FuzzDecodeQuery(f *testing.F) {
	for _, c := range validationCases {
		f.Add([]byte(c.body))
	}
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	// A body cut at every byte offset: each prefix is malformed.
	whole := `{"step":1,"kernel":"lag😀4","points":[{"x":-1.5e-3,"y":2,"z":null},null],"timeout_ms":50,"deriv_steps":2} `
	for i := range whole {
		f.Add([]byte(whole[:i]))
	}
	f.Add(bulkBody(170, 1))
	f.Fuzz(func(t *testing.T, body []byte) { checkDecodeAgrees(t, body) })
}

// TestDecodeSpansReadBuffer decodes bodies many times the read buffer with
// every token kind pushed across every refill boundary in turn.
func TestDecodeSpansReadBuffer(t *testing.T) {
	body := bulkBody(400, 2) // ≈ 7 read buffers
	if len(body) < 6*readBufSize {
		t.Fatalf("body is only %d bytes", len(body))
	}
	for pad := 0; pad < 80; pad++ {
		checkDecodeAgrees(t, append(bytes.Repeat([]byte(" "), pad), body...))
	}
	long := []byte(`{"kernel":"` + strings.Repeat(`é😀é`, 2000) + `","points":[{"x":` + strings.Repeat("1", 3*readBufSize) + `e-12288}]}`)
	checkDecodeAgrees(t, long)
}

// TestDecodeReadErrors pins what the decoder makes of a failing reader: the
// reader's own error, wherever it strikes, and no hang on a reader that
// returns nothing.
func TestDecodeReadErrors(t *testing.T) {
	boom := fmt.Errorf("boom")
	for cut := 0; cut <= len(okBody); cut++ {
		r := io.MultiReader(strings.NewReader(okBody[:cut]), iotest.ErrReader(boom))
		if _, err := DecodeQueryRequest(r); err != boom {
			t.Errorf("reader failing after %d bytes: error %v, want the reader's", cut, err)
		}
	}
	if _, err := DecodeQueryRequest(strings.NewReader(okBody[:10])); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated body: error %v, want io.ErrUnexpectedEOF", err)
	}
	if _, err := DecodeQueryRequest(stuckReader{}); err != io.ErrNoProgress {
		t.Errorf("stuck reader: error %v, want io.ErrNoProgress", err)
	}
}

type stuckReader struct{}

func (stuckReader) Read([]byte) (int, error) { return 0, nil }

// bulkRequest is an n-point request with seeded 16-digit coordinates, the
// shape of the benchmark's serve-bulk requests (≈ 70 bytes per point).
func bulkRequest(n int, seed int64) QueryRequest {
	rng := rand.New(rand.NewSource(seed))
	in := QueryRequest{Step: 1, Kernel: "lag6", Points: make([]Point, n)}
	for i := range in.Points {
		in.Points[i] = Point{X: rng.Float64() * 2 * math.Pi, Y: rng.Float64() * 2 * math.Pi, Z: rng.Float64() * 2 * math.Pi}
	}
	return in
}

// bulkBody is bulkRequest on the wire.
func bulkBody(n int, seed int64) []byte {
	b, err := json.Marshal(bulkRequest(n, seed))
	if err != nil {
		panic(err)
	}
	return b
}

// bulkResult is an n-value result with seeded positions and field values.
func bulkResult(n int, seed int64) []engine.PointSample {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]engine.PointSample, n)
	for i := range vals {
		vals[i] = sample(rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi,
			[4]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
	}
	return vals
}

func sample(x, y, z float64, val [4]float64) engine.PointSample {
	var p engine.PointSample
	p.Pos.X, p.Pos.Y, p.Pos.Z, p.Val = x, y, z, val
	return p
}

// refResponse is the copy of a result into the wire type that the handler
// made before it handed the response to encoding/json.
func refResponse(id int64, virt float64, vals []engine.PointSample) QueryResponse {
	resp := QueryResponse{QueryID: id, VirtualSeconds: virt, Values: make([]PointValue, 0, len(vals))}
	for _, p := range vals {
		resp.Values = append(resp.Values, PointValue{
			Position: Point{X: p.Pos.X, Y: p.Pos.Y, Z: p.Pos.Z},
			Velocity: [3]float64{p.Val[0], p.Val[1], p.Val[2]},
			Pressure: p.Val[3],
		})
	}
	return resp
}

// refEncode is the encoder the codec replaced.
func refEncode(id int64, virt float64, vals []engine.PointSample) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(refResponse(id, virt, vals)); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// countingWriter records how the encoder hands its output over.
type countingWriter struct {
	bytes.Buffer
	writes, largest int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.largest = max(w.largest, len(p))
	return w.Buffer.Write(p)
}

// TestEncodeMatchesEncodingJSON holds WriteQueryResponse to encoding/json
// byte for byte, on the format switches and on random bit patterns.
func TestEncodeMatchesEncodingJSON(t *testing.T) {
	edge := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 2 * math.Pi,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 2.225073858507201e-308, // subnormals and the smallest normal
		1e-7, 9.999999999999999e-7, 1e-6, 1.0000000000000002e-6, -1e-7, 1e-10, 1.5e-9, 1e-100, // the 'e' switch below 1e-6, exponent clean-up
		999999999999999868928, 1e21, 1.0000000000000001e21, -1e21, 1e22, 1e100, math.MaxFloat64, -math.MaxFloat64, // the 'e' switch from 1e21
		123456789012345678, 1.2345678901234567, 0.12345678901234568, 5e-324, 4.35, 100, 1e20, 123456.789e3, // 17 digits, plain integers
	}
	rng := rand.New(rand.NewSource(14))
	next := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return edge[rng.Intn(len(edge))]
		case 1:
			return rng.NormFloat64()
		}
		for {
			if f := math.Float64frombits(rng.Uint64()); finite(f) {
				return f
			}
		}
	}
	var edges []engine.PointSample
	for _, f := range edge {
		edges = append(edges, sample(f, -f, f, [4]float64{f, f, -f, f}))
	}
	cases := [][]engine.PointSample{nil, {}, edges[:1], edges}
	for _, n := range []int{1, 2, 29, 30, 31, 64, 512, 1000} {
		vals := make([]engine.PointSample, n)
		for i := range vals {
			vals[i] = sample(next(), next(), next(), [4]float64{next(), next(), next(), next()})
		}
		cases = append(cases, vals)
	}
	for i, vals := range cases {
		id, virt := rng.Int63()-rng.Int63(), next()
		var w countingWriter
		if err := WriteQueryResponse(&w, id, virt, vals); err != nil {
			t.Fatal(err)
		}
		if want := refEncode(id, virt, vals); !bytes.Equal(w.Bytes(), want) {
			t.Errorf("case %d (%d values): encoded\n%s\nencoding/json\n%s", i, len(vals), w.Bytes(), want)
		}
		if w.largest > writeBufSize || w.Len() > writeBufSize && w.writes < 2 {
			t.Errorf("case %d: %d bytes left in %d writes of at most %d: not streamed through the %d-byte buffer",
				i, w.Len(), w.writes, w.largest, writeBufSize)
		}
	}
	// The longest value there is stays inside the bound the flush rule
	// relies on.
	long := sample(-math.MaxFloat64/3, -1.2345678901234567e-5, -1.2345678901234567e-7, [4]float64{-123456789012345678901, -1.2345678901234567e-300, -0.000001234567890123456, -math.MaxFloat64 / 3})
	var w bytes.Buffer
	if err := WriteQueryResponse(&w, 1, 1, []engine.PointSample{long, long}); err != nil {
		t.Fatal(err)
	}
	if per := (w.Len() - len(refEncode(1, 1, nil)) + 1) / 2; per > maxValueLen-16 {
		t.Errorf("a value can take %d bytes, too close to maxValueLen = %d", per, maxValueLen)
	}
}

// TestEncodeRefusesNonFinite: a NaN or an infinity anywhere is reported
// before a single byte is written.
func TestEncodeRefusesNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 8; field++ {
			vals := bulkResult(100, 3)
			virt := 1.0
			switch p := &vals[99]; field {
			case 0:
				p.Pos.X = bad
			case 1:
				p.Pos.Y = bad
			case 2:
				p.Pos.Z = bad
			case 7:
				virt = bad
			default:
				p.Val[field-3] = bad
			}
			var w countingWriter
			if err := WriteQueryResponse(&w, 1, virt, vals); err != ErrNonFinite || w.writes != 0 {
				t.Errorf("%v in field %d: error %v after %d writes, want ErrNonFinite before any", bad, field, err, w.writes)
			}
		}
	}
}

// leastAllocs is the least of many single-call AllocsPerRun measurements:
// the count with the pooled buffers at hand. Under the race detector
// sync.Pool drops a quarter of what is put back, and the next call
// allocates afresh.
func leastAllocs(f func()) float64 {
	least := math.Inf(1)
	for i := 0; i < 50; i++ {
		least = min(least, testing.AllocsPerRun(1, f))
	}
	return least
}

// TestCodecAllocs pins what the codec allocates for a serve-bulk sized
// request: decoding, the position array (a kernel's wire name is resolved
// to a constant); encoding, nothing. encoding/json needs 30 allocations and ≈ 163 KiB for the same
// body, so this is also the proof that it is out of the path.
func TestCodecAllocs(t *testing.T) {
	body := bulkBody(512, 1)
	rd := bytes.NewReader(body)
	decode := func() {
		rd.Reset(body)
		if in, err := DecodeQueryRequest(rd); err != nil || len(in.Points) != 512 {
			t.Fatalf("decoded %d points, error %v", len(in.Points), err)
		}
	}
	if allocs := leastAllocs(decode); allocs > 1 {
		t.Errorf("decoding a 512-point body: %v allocations, want at most 1", allocs)
	}
	least := uint64(math.MaxUint64)
	for i := 0; i < 10; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		decode()
		runtime.ReadMemStats(&m1)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	if least > 13<<10 {
		t.Errorf("decoding a 512-point body allocated %d bytes, want at most 13 KiB", least)
	}

	vals := bulkResult(512, 1)
	encode := func() {
		if err := WriteQueryResponse(io.Discard, 7, 0.25, vals); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := leastAllocs(encode); allocs != 0 {
		t.Errorf("encoding a 512-value response: %v allocations, want 0", allocs)
	}
}

// handleQueryAllocs is what one handleQuery call allocates with this
// file's harness (fake backend, NewRecorder, request tracking off),
// whatever the point count: the request ID string, the request record
// (job, query, Submit argument and header value in one), the position
// array, the body limiter, and the fake backend's result (2). The reply
// channel is the serving slot's, made once in New; the deadline timer comes
// from a pool; Content-Type is a shared value. With encoding/json in the
// path it was 43 for 8 points and 54 for 512; with the waiter table a
// sync.Map and the kernel name a string, 21 here and 22 in a daemon, whose
// query IDs are past the runtime's small-integer boxes; with a worker pool
// and two fresh channels per request, 19; with a derived deadline context,
// fresh header slices, the ID through fmt.Sprintf and a separate Submit
// argument, 15.
const handleQueryAllocs = 6

// TestHandleQueryAllocs pins the whole handler — decode, admission, a
// slot's round trip to a fake backend, encode — at its exact count.
func TestHandleQueryAllocs(t *testing.T) {
	fake := newFakeBackend()
	fake.eval = func(p jaws.Position) [4]float64 { return [4]float64{p.X, p.Y, p.Z, 1} }
	srv, _ := newTestServer(t, []Backend{fake}, func(c *Config) {
		c.MaxBodyBytes = 1 << 20
		c.MaxPoints = 4096
	})
	for _, n := range []int{8, 512} {
		body := bulkBody(n, 1)
		rd := bytes.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/query", rd)
		rec := httptest.NewRecorder()
		allocs := leastAllocs(func() {
			rd.Reset(body)
			rec.Body.Reset()
			srv.handleQuery(rec, req)
			if rec.Body.Len() < 100*n {
				t.Fatalf("response %q", rec.Body.Bytes())
			}
		})
		if allocs > handleQueryAllocs {
			t.Errorf("%d points: %v allocations per handleQuery, want at most %d", n, allocs, handleQueryAllocs)
		}
	}
}

// poolDrops reports whether sync.Pool drops what it is given, as it does
// one time in four under the race detector: pooled buffers and timers are
// then remade at random, and a per-request count over many requests means
// nothing.
func poolDrops() bool {
	var p sync.Pool
	for range 64 {
		p.Put(new(int))
		if p.Get() == nil {
			return true
		}
	}
	return false
}

// servedOverFloorAllocs is what a served /query allocates above net/http's
// floor in TestServedRequestOverFloor (the floor is 78 objects per request,
// both ends of the loopback together). On the server's side it is the
// handler's handleQueryAllocs (6) and the done channel of the request
// context the handler selects on, less the body the floor leaves net/http
// to discard; the rest is the client reading the header and the body the
// floor does not send. It was 26 with a derived deadline context, fresh
// header slices, the ID
// through fmt.Sprintf, a separate Submit argument and a body left for
// net/http to discard.
const servedOverFloorAllocs = 14

// TestServedRequestOverFloor measures a served request against the
// net/http floor (DESIGN.md §8, "Wire codec") on real loopback keep-alive
// requests: one client sends the same 8-point body to an empty handler — it
// reads the body and writes one header and 200 — and to Handler() over the
// fake backend. Allocations are counted process-wide, client included, so the
// difference per request is what the serving layer adds to net/http.
func TestServedRequestOverFloor(t *testing.T) {
	if poolDrops() {
		t.Skip("sync.Pool drops Puts (race detector): pooled buffers and timers are remade at random")
	}
	// One P. With two, the client's read loop can take a response before
	// its write loop has reported the request written, and then waits on
	// a fresh timer (net/http's persistConn.wroteRequest): 3 objects, on
	// 0-25 % of a round's requests on either side, so up to 0.7 a request
	// of noise where the bound leaves none.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	floor := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header()["Content-Type"] = jsonContentType
		w.WriteHeader(http.StatusOK)
	}))
	defer floor.Close()
	_, served := newTestServer(t, []Backend{newFakeBackend()}, nil)

	body := bulkBody(8, 1)
	perRequest := func(url string) float64 {
		client := &http.Client{Transport: &http.Transport{}}
		defer client.CloseIdleConnections()
		post := func() {
			resp, err := client.Post(url+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d", url, resp.StatusCode)
			}
		}
		const rounds, requests = 5, 200
		least := math.Inf(1)
		for r := 0; r < rounds; r++ {
			post() // the connection, the pools
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < requests; i++ {
				post()
			}
			runtime.ReadMemStats(&m1)
			least = min(least, float64(m1.Mallocs-m0.Mallocs)/requests)
		}
		return least
	}
	base, full := perRequest(floor.URL), perRequest(served.URL)
	over := math.Round(full - base)
	t.Logf("net/http floor %.2f, served %.2f: %.0f allocations per request over the floor", base, full, over)
	if over > servedOverFloorAllocs {
		t.Errorf("a served request allocates %.0f over the net/http floor (%.2f vs %.2f), want at most %d", over, full, base, servedOverFloorAllocs)
	}
}

func benchSizes(b *testing.B, run func(b *testing.B, n int)) {
	for _, n := range []int{8, 170, 512} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			run(b, n)
		})
	}
}

func BenchmarkDecodeQuery(b *testing.B) {
	benchSizes(b, func(b *testing.B, n int) {
		body := bulkBody(n, 1)
		rd := bytes.NewReader(body)
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			rd.Reset(body)
			if _, err := DecodeQueryRequest(rd); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecodeQueryEncodingJSON is the figure to read BenchmarkDecodeQuery
// against: the decode the handler did before, copy into positions included.
func BenchmarkDecodeQueryEncodingJSON(b *testing.B) {
	benchSizes(b, func(b *testing.B, n int) {
		body := bulkBody(n, 1)
		rd := bytes.NewReader(body)
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			rd.Reset(body)
			dec := json.NewDecoder(rd)
			dec.DisallowUnknownFields()
			var in QueryRequest
			if err := dec.Decode(&in); err != nil {
				b.Fatal(err)
			}
			pts := make([]jaws.Position, len(in.Points))
			for i, p := range in.Points {
				pts[i] = jaws.Position{X: p.X, Y: p.Y, Z: p.Z}
			}
		}
	})
}

func BenchmarkEncodeResponse(b *testing.B) {
	benchSizes(b, func(b *testing.B, n int) {
		vals := bulkResult(n, 1)
		b.SetBytes(int64(len(refEncode(7, 0.25, vals))))
		for i := 0; i < b.N; i++ {
			if err := WriteQueryResponse(io.Discard, 7, 0.25, vals); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEncodeResponseEncodingJSON is the figure to read
// BenchmarkEncodeResponse against: the copy into the wire type and
// encoding/json, as the handler did before.
func BenchmarkEncodeResponseEncodingJSON(b *testing.B) {
	benchSizes(b, func(b *testing.B, n int) {
		vals := bulkResult(n, 1)
		b.SetBytes(int64(len(refEncode(7, 0.25, vals))))
		for i := 0; i < b.N; i++ {
			if err := json.NewEncoder(io.Discard).Encode(refResponse(7, 0.25, vals)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
