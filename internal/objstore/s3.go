package objstore

import (
	"bytes"
	"context"
	"encoding/xml"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"repro/internal/objstore/sigv4"
)

// s3Credentials is the static access-key pair the s3 backend signs
// with.
type s3Credentials = sigv4.Credentials

// httpDoer is the slice of http.Client the s3 backend needs; tests
// inject an httptest client.
type httpDoer interface {
	Do(*http.Request) (*http.Response, error)
}

// s3 environment contract (MinIO-compatible): the backend reads
// AWS_ACCESS_KEY_ID, AWS_SECRET_ACCESS_KEY, AWS_REGION (default
// us-east-1) and AWS_ENDPOINT_URL (default the AWS regional endpoint)
// unless the corresponding Option overrides them.
const (
	envAccessKey = "AWS_ACCESS_KEY_ID"
	envSecretKey = "AWS_SECRET_ACCESS_KEY"
	envRegion    = "AWS_REGION"
	envEndpoint  = "AWS_ENDPOINT_URL"

	defaultRegion = "us-east-1"
)

// maxErrorBody bounds how much of an S3 error response travels into an
// error message.
const maxErrorBody = 4 << 10

// maxObjectBody bounds a single entry fetch; envelopes are small JSON
// documents, so anything near this is corrupt or hostile.
const maxObjectBody = 64 << 20

// S3 is the stdlib-only client for the REST subset MinIO serves:
// SigV4-signed GET / PUT / HEAD / ListObjectsV2 with path-style
// addressing. Entries map to keys <prefix><name[:2]>/<name>.json —
// the same layout fs uses, so a bucket is browsable with any s3 tool.
type S3 struct {
	endpoint url.URL // scheme + host only
	bucket   string
	prefix   string // "" or slash-terminated
	region   string
	creds    s3Credentials
	client   httpDoer
}

// newS3FromSpec builds the s3 backend from an s3://bucket[/prefix]
// spec plus the option/environment configuration.
func newS3FromSpec(spec string, cfg *config) (*S3, error) {
	rest := strings.TrimPrefix(spec, "s3://")
	bucket, prefix, _ := strings.Cut(rest, "/")
	if bucket == "" {
		return nil, fmt.Errorf("objstore: spec %q: s3:// needs a bucket", spec)
	}
	if !validBucket(bucket) {
		return nil, fmt.Errorf("objstore: spec %q: bad bucket name %q", spec, bucket)
	}
	prefix = strings.Trim(prefix, "/")
	if prefix != "" {
		if !validPrefix(prefix) {
			return nil, fmt.Errorf("objstore: spec %q: prefix may only contain [A-Za-z0-9._/-]", spec)
		}
		prefix += "/"
	}
	region := cfg.region
	if region == "" {
		region = envOr(envRegion, defaultRegion)
	}
	endpoint := cfg.endpoint
	if endpoint == "" {
		endpoint = envOr(envEndpoint, "https://s3."+region+".amazonaws.com")
	}
	u, err := url.Parse(endpoint)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("objstore: bad s3 endpoint %q: want scheme://host", endpoint)
	}
	creds := cfg.creds
	if creds.AccessKeyID == "" {
		creds = s3Credentials{
			AccessKeyID:     envOr(envAccessKey, ""),
			SecretAccessKey: envOr(envSecretKey, ""),
		}
	}
	if creds.AccessKeyID == "" || creds.SecretAccessKey == "" {
		return nil, fmt.Errorf("objstore: s3 credentials missing: set %s and %s (or WithCredentials)", envAccessKey, envSecretKey)
	}
	client := cfg.httpClient
	if client == nil {
		client = &http.Client{Timeout: 60 * time.Second}
	}
	return &S3{
		endpoint: url.URL{Scheme: u.Scheme, Host: u.Host},
		bucket:   bucket,
		prefix:   prefix,
		region:   region,
		creds:    creds,
		client:   client,
	}, nil
}

// validBucket applies the portable S3 bucket grammar: lowercase
// letters, digits, dots and dashes, starting and ending alphanumeric.
func validBucket(b string) bool {
	if len(b) < 3 || len(b) > 63 {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		alnum := (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')
		if (i == 0 || i == len(b)-1) && !alnum {
			return false
		}
		if !alnum && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

// validPrefix restricts key prefixes to characters whose URL encoding
// is the identity, so the path the client signs is byte-for-byte the
// path on the wire regardless of URL library quirks.
func validPrefix(p string) bool {
	if strings.Contains(p, "//") {
		return false
	}
	for i := 0; i < len(p); i++ {
		c := p[i]
		switch {
		case c >= 'A' && c <= 'Z', c >= 'a' && c <= 'z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-', c == '/':
		default:
			return false
		}
	}
	return true
}

func (s *S3) String() string {
	return "s3://" + s.bucket + "/" + strings.TrimSuffix(s.prefix, "/")
}

// objectKey returns the bucket key for an entry name.
func (s *S3) objectKey(name string) string {
	return s.prefix + name[:2] + "/" + name + ".json"
}

// do signs and issues one request and returns the response. The body
// is the full request payload (nil for GET/HEAD); its hash is signed,
// so a tampered payload fails server-side verification.
func (s *S3) do(ctx context.Context, method, key, rawQuery string, body []byte, extra http.Header) (*http.Response, error) {
	u := s.endpoint
	u.Path = "/" + s.bucket
	if key != "" {
		u.Path += "/" + key
	}
	u.RawQuery = rawQuery
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u.String(), rd)
	if err != nil {
		return nil, err
	}
	for k, vs := range extra {
		req.Header[k] = vs
	}
	hash := sigv4.EmptyPayloadHash
	if body != nil {
		hash = sigv4.PayloadHash(body)
		req.ContentLength = int64(len(body))
	}
	now := time.Now() //repro:allow nodeterm -- SigV4 signing timestamps are transport metadata, never results
	if err := sigv4.SignRequest(req, hash, s.creds, s.region, "s3", now); err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("objstore: s3 %s %s: %w", method, key, err)
	}
	return resp, nil
}

// apiError drains resp and converts a non-2xx status into an error; a
// 404 wraps fs.ErrNotExist so misses flow through the store unchanged.
func apiError(resp *http.Response, method, key string) error {
	snippet, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
	resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Errorf("objstore: s3 %s %s: %s: %w", method, key, http.StatusText(resp.StatusCode), fs.ErrNotExist)
	}
	msg := strings.TrimSpace(string(snippet))
	if len(msg) > 200 {
		msg = msg[:200]
	}
	return fmt.Errorf("objstore: s3 %s %s: status %d %s", method, key, resp.StatusCode, msg)
}

func (s *S3) Get(ctx context.Context, name string) ([]byte, error) {
	if !ValidName(name) {
		return nil, errBadName(name)
	}
	key := s.objectKey(name)
	resp, err := s.do(ctx, http.MethodGet, key, "", nil, nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp, "GET", key)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxObjectBody))
	if err != nil {
		return nil, fmt.Errorf("objstore: s3 GET %s: reading body: %w", key, err)
	}
	return data, nil
}

func (s *S3) Put(ctx context.Context, name string, data []byte) error {
	if !ValidName(name) {
		return errBadName(name)
	}
	key := s.objectKey(name)
	resp, err := s.do(ctx, http.MethodPut, key, "", data, nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return apiError(resp, "PUT", key)
	}
	resp.Body.Close()
	return nil
}

// PutIfAbsent uploads with a conditional write: If-None-Match: * makes
// the server reject the PUT with 412 when the key already exists
// (supported by S3 and MinIO alike), so the first writer wins and a
// peer can never clobber existing bytes. A cheap HEAD first skips the
// upload entirely for the common already-present case.
func (s *S3) PutIfAbsent(ctx context.Context, name string, data []byte) (bool, error) {
	if !ValidName(name) {
		return false, errBadName(name)
	}
	key := s.objectKey(name)
	if s.head(ctx, key) == nil {
		return false, nil
	}
	hdr := http.Header{"If-None-Match": []string{"*"}}
	resp, err := s.do(ctx, http.MethodPut, key, "", data, hdr)
	if err != nil {
		return false, err
	}
	if resp.StatusCode == http.StatusPreconditionFailed {
		resp.Body.Close()
		return false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return false, apiError(resp, "PUT", key)
	}
	resp.Body.Close()
	return true, nil
}

// head probes key with a HEAD request: nil means the object exists.
func (s *S3) head(ctx context.Context, key string) error {
	resp, err := s.do(ctx, http.MethodHead, key, "", nil, nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return apiError(resp, "HEAD", key)
	}
	resp.Body.Close()
	return nil
}

// listResult is the ListObjectsV2 response subset the client parses.
type listResult struct {
	XMLName               xml.Name `xml:"ListBucketResult"`
	IsTruncated           bool     `xml:"IsTruncated"`
	NextContinuationToken string   `xml:"NextContinuationToken"`
	Contents              []struct {
		Key  string `xml:"Key"`
		Size int64  `xml:"Size"`
	} `xml:"Contents"`
}

func (s *S3) List(ctx context.Context, shard string) ([]Object, error) {
	if !ValidShard(shard) {
		return nil, errBadShard(shard)
	}
	var objs []Object
	token := ""
	for {
		q := url.Values{}
		q.Set("list-type", "2")
		q.Set("prefix", s.prefix+shard+"/")
		if token != "" {
			q.Set("continuation-token", token)
		}
		resp, err := s.do(ctx, http.MethodGet, "", q.Encode(), nil, nil)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, apiError(resp, "LIST", shard)
		}
		var lr listResult
		err = xml.NewDecoder(io.LimitReader(resp.Body, maxObjectBody)).Decode(&lr)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("objstore: s3 LIST %s: decoding response: %w", shard, err)
		}
		for _, c := range lr.Contents {
			stem, ok := strings.CutSuffix(strings.TrimPrefix(c.Key, s.prefix+shard+"/"), ".json")
			if !ok || !ValidName(stem) || stem[:2] != shard {
				continue // foreign keys under the prefix are not entries
			}
			objs = append(objs, Object{Name: stem, Size: c.Size})
		}
		if !lr.IsTruncated || lr.NextContinuationToken == "" {
			break
		}
		token = lr.NextContinuationToken
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Name < objs[j].Name })
	return objs, nil
}

func (s *S3) Close() error { return nil }
