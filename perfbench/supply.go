package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mpf"
	"mpf/internal/server"
)

// supply-wire: the §7 `invest` view served over loopback HTTP by
// internal/server to supplySessions closed-loop wire sessions, each
// cycling the supplyGroups group-bys.

const supplySessions = 2

var (
	supplyTables = []string{"contracts", "location", "warehouses", "ctdeals", "transporters"}
	supplyGroups = [][]string{{"wid"}, {"tid"}, {"wid", "tid"}, {"sid"}}
)

// Headers carrying a traced request's ids from the client to the
// server-side span.
const (
	hdrOp     = "X-Perfbench-Op"
	hdrParent = "X-Perfbench-Parent"
	hdrSpan   = "X-Perfbench-Span"
)

// wireServed is one set-up instance: the database, the wire server in
// front of it, and the loopback listener.
type wireServed struct {
	db   *mpf.Database
	srv  *server.Server
	http *http.Server
	url  string
	done chan error
}

func (s *wireServed) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if herr := s.http.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-s.done; err == nil && serr != http.ErrServerClosed {
		err = serr
	}
	if cerr := s.db.Close(); err == nil {
		err = cerr
	}
	return err
}

func runSupplyWire(r *runner) error {
	rels := supplyChain(rand.New(rand.NewSource(r.opts.seed)))
	s, err := setUp(r, func(spanCtx) (*wireServed, error) {
		db, err := mpf.Open(mpf.Config{})
		if err != nil {
			return nil, err
		}
		for _, rel := range rels {
			if err := db.CreateTable(rel); err != nil {
				db.Close()
				return nil, err
			}
		}
		if err := db.CreateView("invest", supplyTables); err != nil {
			db.Close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			db.Close()
			return nil, err
		}
		srv := server.New(db, server.Config{})
		var h http.Handler = srv
		if r.tr != nil {
			h = tracedHandler{srv, r.tr}
		}
		s := &wireServed{db: db, srv: srv, http: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
		go func() { s.done <- s.http.Serve(ln) }()
		return s, nil
	}, (*wireServed).close)
	if err != nil {
		return err
	}
	defer s.close()

	// Expected answers: each group-by run serially in process, and each
	// checked once against the in-memory interpreter.
	specs := make([]*mpf.QuerySpec, len(supplyGroups))
	want := make([][]byte, len(supplyGroups))
	for i, g := range supplyGroups {
		specs[i] = &mpf.QuerySpec{View: "invest", GroupVars: g}
		res, err := s.db.Query(specs[i])
		if err != nil {
			return fmt.Errorf("serial %v: %w", g, err)
		}
		want[i] = canonical(res.Relation)
		mem, err := s.db.Query(&mpf.QuerySpec{View: "invest", GroupVars: g, Exec: mpf.MemoryExec})
		if err == nil {
			err = sameAnswer(mem.Relation, want[i])
		}
		r.check(wrap(err, "MemoryExec %v", g))
	}

	// The wire answer of each spec, served serially before the sessions
	// start; every later wire answer must carry the same relation bytes.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: supplySessions}}
	defer client.CloseIdleConnections()
	wantWire := make([][]byte, len(specs))
	for i, q := range specs {
		var resp wireAnswer
		err := post(client, s.url+"/v1/query", server.QueryRequest{Query: q}, &resp)
		if err == nil {
			err = decodeAnswer(resp.Result.Relation, want[i])
		}
		if err != nil {
			return wrap(err, "serial wire %v", q.GroupVars)
		}
		wantWire[i] = resp.Result.Relation
	}

	stop := r.start(s.db)
	var wg sync.WaitGroup
	for c := 0; c < supplySessions; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wireSession(r, client, s.url, c, specs, wantWire, want)
		}()
	}
	wg.Wait()
	stop()
	return nil
}

// wireAnswer is the part of a query response the check reads: the
// relation, left encoded.
type wireAnswer struct {
	Result struct {
		Relation json.RawMessage `json:"relation"`
	} `json:"result"`
}

// decodeAnswer decodes a wire relation and checks it is byte-identical
// to the canonical answer want.
func decodeAnswer(raw json.RawMessage, want []byte) error {
	var rel mpf.Relation
	if err := json.Unmarshal(raw, &rel); err != nil {
		return err
	}
	return sameAnswer(&rel, want)
}

// wireSession is one closed-loop client: it opens a wire session and
// sends the next query only when the previous answer has arrived and
// been checked. Session c starts the cycle at spec c. An answer whose
// relation bytes equal the serial wire answer passes at once; any other
// is decoded and must be byte-identical to the serial answer after
// canonical ordering.
func wireSession(r *runner, client *http.Client, url string, c int, specs []*mpf.QuerySpec, wantWire, want [][]byte) {
	var sess server.SessionResponse
	if !r.check(post(client, url+"/v1/sessions", server.SessionRequest{}, &sess)) {
		return
	}
	for i := c; r.running(); i++ {
		k := i % len(specs)
		body, err := json.Marshal(server.QueryRequest{Session: sess.Session, Query: specs[k]})
		if !r.check(err) {
			return
		}
		start := time.Now()
		tr := r.traceAt(start)
		op, clientID, serverID := tr.newID(), tr.newID(), tr.newID()
		var hdr http.Header
		if tr != nil {
			hdr = http.Header{}
			hdr.Set(hdrOp, strconv.FormatInt(op, 10))
			hdr.Set(hdrParent, strconv.FormatInt(clientID, 10))
			hdr.Set(hdrSpan, strconv.FormatInt(serverID, 10))
		}
		data, err := roundTrip(client, url+"/v1/query", body, hdr)
		d := time.Since(start)
		var ans wireAnswer
		if err == nil {
			err = json.Unmarshal(data, &ans)
		}
		if err == nil && !bytes.Equal(ans.Result.Relation, wantWire[k]) {
			err = decodeAnswer(ans.Result.Relation, want[k])
		}
		if !r.check(wrap(err, "wire query %v", specs[k].GroupVars)) {
			continue
		}
		r.sample(&r.lat, start, d)
		if tr != nil {
			var qr server.QueryResponse
			if !r.check(json.Unmarshal(data, &qr)) {
				continue
			}
			tr.record(clientID, 0, op, "client", start, d)
			tr.result(serverID, op, qr.Result)
			r.layer.query(qr.Result, len(data))
		}
	}
}

// roundTrip posts body and returns the response body of a 200 answer.
func roundTrip(client *http.Client, url string, body []byte, hdr http.Header) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP status %d: %s", resp.StatusCode, data)
	}
	return data, nil
}

// post sends one JSON request and decodes the JSON answer into out.
func post(client *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	data, err := roundTrip(client, url, body, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// tracedHandler records a "server" span around the wire server's
// ServeHTTP for requests that carry trace ids.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	t.h.ServeHTTP(w, req)
	d := time.Since(start)
	id, err := strconv.ParseInt(req.Header.Get(hdrSpan), 10, 64)
	if err != nil {
		return
	}
	// wireSession sets the three headers together.
	op, _ := strconv.ParseInt(req.Header.Get(hdrOp), 10, 64)
	parent, _ := strconv.ParseInt(req.Header.Get(hdrParent), 10, 64)
	t.tr.record(id, parent, op, "server", start, d)
}

// wrap prefixes a failure with the operation that failed.
func wrap(err error, format string, args ...any) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), err)
}
