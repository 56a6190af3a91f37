package service

// The membership and peer endpoints: the admin-guarded
// join/leave/membership endpoints that rebuild the ring without
// restarting any daemon, and the peer-facing sealed-entry and journal
// endpoints. The requests a node sends to its peers (fetches, replica
// and journal pushes, journal adoption, membership broadcast) are made
// by internal/cluster. Protocol in docs/CLUSTER.md.

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path"
	"path/filepath"

	"sdt/internal/cluster"
	"sdt/internal/store"
)

// adminCluster guards the membership routes: the node must be
// clustered, and the request must carry the configured admin token (in
// X-Admin-Token or as an Authorization bearer). With no token
// configured the routes are disabled. It returns nil once it has
// written the refusal.
func (s *Server) adminCluster(w http.ResponseWriter, r *http.Request) *cluster.Cluster {
	c, token := s.cfg.Cluster, s.cfg.AdminToken
	if c == nil {
		s.writeError(w, r, http.StatusBadRequest, CodeInvalidRequest, "this node is not clustered")
		return nil
	}
	var ok bool
	if h := r.Header.Get("X-Admin-Token"); h != "" {
		ok = subtle.ConstantTimeCompare([]byte(h), []byte(token)) == 1
	} else if h := r.Header.Get("Authorization"); h != "" {
		ok = subtle.ConstantTimeCompare([]byte(h), []byte("Bearer "+token)) == 1
	}
	switch {
	case token == "":
		s.writeError(w, r, http.StatusForbidden, CodeForbidden, "membership endpoints are disabled (no -admin-token configured)")
	case !ok:
		s.writeError(w, r, http.StatusForbidden, CodeForbidden, "admin token mismatch")
	default:
		return c
	}
	return nil
}

// decodeMemberChange reads a join/leave body.
func (s *Server) decodeMemberChange(w http.ResponseWriter, r *http.Request) (MemberChange, error) {
	var req MemberChange
	if err := s.decodeBody(w, r, &req); err != nil {
		return req, err
	}
	if req.URL == "" {
		return req, errors.New("url must be non-empty")
	}
	return req, nil
}

// handleMemberChange serves POST /v1/cluster/join and /leave. Join adds
// a member to the ring (epoch+1); leave removes one. The new membership
// is broadcast to every node in the old or new view: the joiner adopts
// the fleet's epoch instead of its boot view, and a removed node
// installs a solo view and knows it is out — but keeps serving its
// store, which is what lets its keys migrate lazily to their new owners
// before it is actually shut down.
func (s *Server) handleMemberChange(w http.ResponseWriter, r *http.Request) {
	c := s.adminCluster(w, r)
	if c == nil {
		return
	}
	req, err := s.decodeMemberChange(w, r)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, CodeInvalidRequest, err.Error())
		return
	}
	op := path.Base(r.URL.Path)
	old := c.CurrentView()
	var v *cluster.View
	if op == "join" {
		v, err = c.Join(req.URL)
	} else {
		v, err = c.Leave(req.URL)
	}
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, CodeInvalidRequest, err.Error())
		return
	}
	s.met.membershipChanges.get(fmt.Sprintf("op=%q", op)).Inc()
	if err := c.Broadcast(r.Context(), old, v, s.cfg.AdminToken); err != nil {
		s.cfg.Log.Printf("cluster %s %s: %v", op, req.URL, err)
	}
	s.cfg.Log.Printf("cluster %s %s: epoch %d -> %d, %d members",
		op, req.URL, old.Epoch(), v.Epoch(), v.Size())
	s.writeJSON(w, r, http.StatusOK, MembershipResponse{Epoch: v.Epoch(), Members: v.MemberURLs()})
}

// handleMembership applies a broadcast membership update. It carries
// the same admin guard as join/leave (the broadcaster authenticates
// with the shared token); stale epochs are acknowledged without effect,
// which makes rebroadcasts and request races harmless.
func (s *Server) handleMembership(w http.ResponseWriter, r *http.Request) {
	c := s.adminCluster(w, r)
	if c == nil {
		return
	}
	var req MembershipUpdate
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeError(w, r, http.StatusBadRequest, CodeInvalidRequest, err.Error())
		return
	}
	v, changed, err := c.Apply(req.Epoch, req.Peers)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, CodeInvalidRequest, err.Error())
		return
	}
	if changed {
		s.met.membershipChanges.get(`op="apply"`).Inc()
		s.cfg.Log.Printf("cluster membership applied: epoch %d, %d members", v.Epoch(), v.Size())
	}
	s.writeJSON(w, r, http.StatusOK, MembershipResponse{Epoch: v.Epoch(), Members: v.MemberURLs()})
}

// ---- peer replica writes ----

// validStoreKey accepts content-store keys: 64 lowercase hex chars
// (sha256). Anything else on the peer write path is a protocol error.
func validStoreKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// writeSealed answers a peer GET with data sealed like a store entry,
// so the fetching node can verify integrity exactly as it would a local
// disk read.
func (s *Server) writeSealed(w http.ResponseWriter, r *http.Request, data []byte) {
	s.countRequest(r, http.StatusOK)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(store.SealEntry(data))
}

// readSealed reads and unseals a peer PUT body (what names it in
// errors). On failure it has written the 400.
func (s *Server) readSealed(w http.ResponseWriter, r *http.Request, what string) ([]byte, bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, CodeInvalidRequest, "reading "+what+": "+err.Error())
		return nil, false
	}
	data, err := store.OpenEntry(raw)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, CodeInvalidRequest, "sealed "+what+" rejected: "+err.Error())
		return nil, false
	}
	return data, true
}

// handlePeerResult serves the sealed entry for a locally stored result.
// It reads through ByteStore.Get, which is strictly local — so a fleet
// of nodes serving each other can never cascade a fetch into further
// peer fetches.
func (s *Server) handlePeerResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	data, ok := s.store.Get(key)
	if !ok {
		s.countRequest(r, http.StatusNotFound)
		http.Error(w, "no result stored under "+key, http.StatusNotFound)
		return
	}
	s.writeSealed(w, r, data)
}

// handlePeerResultPut accepts one replicated sealed entry from a peer.
// The seal is verified before the bytes are admitted, and the write
// goes through Put — never Do — so an accepted replica is stored
// locally without triggering this node's own replication fan-out
// (which would echo entries around the ring forever).
func (s *Server) handlePeerResultPut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validStoreKey(key) {
		s.writeError(w, r, http.StatusBadRequest, CodeInvalidRequest, "malformed store key")
		return
	}
	data, ok := s.readSealed(w, r, "entry")
	if !ok {
		return
	}
	s.store.Put(key, data)
	if c := s.cfg.Cluster; c != nil {
		c.NoteReplicaReceived()
	}
	s.countRequest(r, http.StatusNoContent)
	w.WriteHeader(http.StatusNoContent)
}

// ---- replicated sweep journals ----

// journalPath locates id's checkpoint file under the store root.
func (s *Server) journalPath(id string) string {
	return filepath.Join(s.cfg.StoreDir, "sweeps", id+".json")
}

// checkJournalReq validates the common preconditions of the peer
// journal endpoints.
func (s *Server) checkJournalReq(w http.ResponseWriter, r *http.Request) (string, bool) {
	id := r.PathValue("id")
	if !validSweepID(id) {
		s.writeError(w, r, http.StatusBadRequest, CodeInvalidRequest,
			"sweep id must be 1-64 chars of [A-Za-z0-9._-] starting with an alphanumeric")
		return "", false
	}
	if s.cfg.StoreDir == "" {
		s.writeError(w, r, http.StatusBadRequest, CodeInvalidRequest,
			"journal replication requires an on-disk store")
		return "", false
	}
	return id, true
}

// handlePeerJournalGet serves a locally held sweep journal, sealed.
func (s *Server) handlePeerJournalGet(w http.ResponseWriter, r *http.Request) {
	id, ok := s.checkJournalReq(w, r)
	if !ok {
		return
	}
	data, err := os.ReadFile(s.journalPath(id))
	if err != nil {
		s.writeError(w, r, http.StatusNotFound, CodeNotFound, "no journal stored under "+id)
		return
	}
	s.writeSealed(w, r, data)
}

// handlePeerJournalPut accepts a coordinator's replicated checkpoint.
// The seal and the journal's ID binding are verified before the atomic
// write; a bad replica is rejected rather than shadowing a good one.
func (s *Server) handlePeerJournalPut(w http.ResponseWriter, r *http.Request) {
	id, ok := s.checkJournalReq(w, r)
	if !ok {
		return
	}
	data, ok := s.readSealed(w, r, "journal")
	if !ok {
		return
	}
	if !isJournalFor(data, id) {
		s.writeError(w, r, http.StatusBadRequest, CodeInvalidRequest, "journal body does not match id "+id)
		return
	}
	if err := writeFileAtomic(s.journalPath(id), data); err != nil {
		s.met.journalErrs.Inc()
		s.writeError(w, r, http.StatusInternalServerError, CodeInternal, "storing journal: "+err.Error())
		return
	}
	s.countRequest(r, http.StatusNoContent)
	w.WriteHeader(http.StatusNoContent)
}

// handlePeerJournalDelete removes a replicated journal — the tombstone
// a coordinator sends once its sweep fully completes. Idempotent.
func (s *Server) handlePeerJournalDelete(w http.ResponseWriter, r *http.Request) {
	id, ok := s.checkJournalReq(w, r)
	if !ok {
		return
	}
	if err := os.Remove(s.journalPath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		s.writeError(w, r, http.StatusInternalServerError, CodeInternal, "removing journal: "+err.Error())
		return
	}
	s.countRequest(r, http.StatusNoContent)
	w.WriteHeader(http.StatusNoContent)
}

// adoptJournal materializes a dead coordinator's replicated journal
// locally so openSweepJournal can resume from it. If a local copy
// already exists (this node was a shipping target, or the coordinator
// itself restarting) it is used as-is; otherwise the cluster walks the
// journal's successors for a seal-verified copy bound to id. Digest
// validation against the resubmitted request happens in
// openSweepJournal, exactly as for a local resume.
func (s *Server) adoptJournal(id string) error {
	if _, err := os.Stat(s.journalPath(id)); err == nil {
		return nil
	}
	c := s.cfg.Cluster
	if c == nil {
		return cluster.ErrNoJournal
	}
	data, err := c.FetchJournal(id, func(data []byte) bool { return isJournalFor(data, id) })
	if err != nil {
		return err
	}
	return writeFileAtomic(s.journalPath(id), data)
}
