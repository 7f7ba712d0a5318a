package osn

import (
	"errors"

	"sybilwild/internal/sim"
)

// The feed subsystem models Renren's most popular activity (§2.1):
// sharing blog entries, which propagate across multiple social hops
// "much like retweets on Twitter". It is the delivery surface Sybil
// ad campaigns exploit once friendships are in place.

// BlogID identifies a blog entry.
type BlogID int32

// Feed errors.
var (
	ErrNoBlog     = errors.New("osn: no such blog")
	ErrNotVisible = errors.New("osn: blog not visible to this user")
	ErrReshared   = errors.New("osn: user already shared this blog")
)

type blog struct {
	author  AccountID
	at      sim.Time
	sharers map[AccountID]struct{} // author + everyone who re-shared
}

// PostBlog publishes a blog entry by author and returns its ID. The
// entry is immediately visible to the author's friends.
func (n *Network) PostBlog(author AccountID, at sim.Time) (BlogID, error) {
	if n.accounts[author].Banned {
		return 0, ErrBanned
	}
	id := BlogID(len(n.blogs))
	n.blogs = append(n.blogs, blog{
		author:  author,
		at:      at,
		sharers: map[AccountID]struct{}{author: {}},
	})
	n.emit(Event{Type: EvBlogPost, At: at, Actor: author, Aux: int32(id)})
	return id, nil
}

// ShareBlog re-shares a blog entry, extending its reach by one hop.
// The sharer must be able to see the entry: one of their friends must
// already be among its sharers. Sharing is idempotent-checked.
func (n *Network) ShareBlog(sharer AccountID, id BlogID, at sim.Time) error {
	if int(id) < 0 || int(id) >= len(n.blogs) {
		return ErrNoBlog
	}
	if n.accounts[sharer].Banned {
		return ErrBanned
	}
	b := &n.blogs[id]
	if _, dup := b.sharers[sharer]; dup {
		return ErrReshared
	}
	visible := false
	for _, e := range n.g.Neighbors(sharer) {
		if _, ok := b.sharers[e.To]; ok {
			visible = true
			break
		}
	}
	if !visible {
		return ErrNotVisible
	}
	b.sharers[sharer] = struct{}{}
	n.emit(Event{Type: EvBlogShare, At: at, Actor: sharer, Target: b.author, Aux: int32(id)})
	return nil
}

// BlogAudience returns the entry's current reach: the number of
// distinct accounts with at least one sharer among their friends
// (sharers themselves excluded).
func (n *Network) BlogAudience(id BlogID) int {
	if int(id) < 0 || int(id) >= len(n.blogs) {
		return 0
	}
	b := &n.blogs[id]
	seen := make(map[AccountID]struct{})
	for s := range b.sharers {
		for _, e := range n.g.Neighbors(s) {
			if _, isSharer := b.sharers[e.To]; !isSharer {
				seen[e.To] = struct{}{}
			}
		}
	}
	return len(seen)
}
