package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// spanHeader carries a client span to the server side of one process's
// loopback HTTP hop, so the handler's span nests under the request's.
const spanHeader = "X-Bench-Span"

// httpClient is one client connection: a transport limited to a single
// TCP connection, so each of the benchmark's load generators is exactly
// one connection to the server.
type httpClient struct {
	c    *http.Client
	base string
	tr   *tracer
}

func newHTTPClient(base string, tr *tracer) *httpClient {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpClient{c: &http.Client{Transport: t, Timeout: 2 * time.Minute}, base: base, tr: tr}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// do sends one request inside a client span named name and returns the
// status and body. A transport error is returned as err.
func (h *httpClient) do(ctx context.Context, name, method, path string, body []byte) (int, []byte, error) {
	ctx, end := h.tr.begin(ctx, "client", name)
	defer end()
	req, err := http.NewRequestWithContext(ctx, method, h.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if ref := refFrom(ctx); ref.id != 0 {
		req.Header.Set(spanHeader, fmt.Sprintf("%d-%d-%d", ref.op, ref.id, ref.lane))
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// doJSON is do with a JSON request body and a JSON response decoded
// into out (when the status is 2xx and out is non-nil).
func (h *httpClient) doJSON(ctx context.Context, name, method, path string, in, out any) (int, error) {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return 0, err
		}
	}
	status, data, err := h.do(ctx, name, method, path, body)
	if err != nil {
		return status, err
	}
	if status/100 != 2 {
		return status, fmt.Errorf("%s %s: %d: %s", method, path, status, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return status, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return status, nil
}

// tracedHandler wraps a server so every request it serves is a span in
// the "service" layer, nested under the client span that sent it.
func tracedHandler(tr *tracer, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		ctx := req.Context()
		if f := strings.Split(req.Header.Get(spanHeader), "-"); len(f) == 3 {
			op, _ := strconv.ParseUint(f[0], 10, 64)
			id, _ := strconv.ParseUint(f[1], 10, 64)
			lane, _ := strconv.Atoi(f[2])
			ctx = context.WithValue(ctx, spanCtxKey{}, spanRef{id: id, op: op, lane: lane})
		}
		_, end := tr.begin(ctx, "service", req.Method+" "+routeOf(req.URL.Path))
		defer end()
		h.ServeHTTP(w, req)
	})
}

// routeOf names a request path without its keys ("/v1/runs/<key>" ->
// "/v1/runs/{key}", "/v1/store/ns/<path...>" -> "/v1/store/ns/{...}").
func routeOf(path string) string {
	parts := strings.Split(strings.TrimPrefix(path, "/"), "/")
	switch {
	case len(parts) > 3 && parts[1] == "store":
		parts = append(parts[:3], "{...}")
	case len(parts) > 2 && len(parts[2]) >= 32:
		parts[2] = "{key}"
	}
	return "/" + strings.Join(parts, "/")
}
