package osn

import "testing"

// chainNet builds a path of friends: 0-1-2-3-4.
func chainNet(t *testing.T, n int) *Network {
	t.Helper()
	net := NewNetwork()
	for i := 0; i < n; i++ {
		net.CreateAccount(Female, Normal, 0)
	}
	for i := 0; i < n-1; i++ {
		net.SendFriendRequest(AccountID(i), AccountID(i+1), 1)
		net.RespondFriendRequest(AccountID(i+1), AccountID(i), true, 2)
	}
	return net
}

func TestPostBlogVisibility(t *testing.T) {
	net := chainNet(t, 4)
	id, err := net.PostBlog(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	// A sharer already: the author's own re-share is a duplicate.
	if err := net.ShareBlog(0, id, 11); err != ErrReshared {
		t.Fatalf("author re-share err = %v, want ErrReshared", err)
	}
	if err := net.ShareBlog(2, id, 11); err != ErrNotVisible {
		t.Fatalf("2-hop user sees unshared blog: share err = %v", err)
	}
	if net.BlogAudience(id) != 1 {
		t.Fatalf("audience = %d, want 1 (only node 1)", net.BlogAudience(id))
	}
	if err := net.ShareBlog(1, id, 12); err != nil {
		t.Fatalf("friend cannot see blog: share err = %v", err)
	}
}

func TestShareCascadeExtendsReach(t *testing.T) {
	net := chainNet(t, 5)
	id, _ := net.PostBlog(0, 10)
	// 2 cannot share yet (not visible).
	if err := net.ShareBlog(2, id, 11); err != ErrNotVisible {
		t.Fatalf("2-hop share err = %v", err)
	}
	if err := net.ShareBlog(1, id, 12); err != nil {
		t.Fatal(err)
	}
	// Now 2 can see and share; the cascade hops outward.
	if err := net.ShareBlog(2, id, 13); err != nil {
		t.Fatalf("cascade did not extend visibility: %v", err)
	}
	for _, u := range []AccountID{0, 1, 2} {
		if err := net.ShareBlog(u, id, 14); err != ErrReshared {
			t.Fatalf("account %d re-share err = %v, want ErrReshared (a sharer)", u, err)
		}
	}
	if err := net.ShareBlog(4, id, 14); err != ErrNotVisible {
		t.Fatalf("account 4 share err = %v, want ErrNotVisible", err)
	}
	// Audience: nodes 3 (friend of sharer 2); 0,1,2 are sharers.
	if net.BlogAudience(id) != 1 {
		t.Fatalf("audience = %d", net.BlogAudience(id))
	}
}

func TestShareValidation(t *testing.T) {
	net := chainNet(t, 3)
	id, _ := net.PostBlog(0, 1)
	if err := net.ShareBlog(1, id, 2); err != nil {
		t.Fatal(err)
	}
	if err := net.ShareBlog(1, id, 3); err != ErrReshared {
		t.Fatalf("duplicate share err = %v", err)
	}
	if err := net.ShareBlog(1, BlogID(99), 3); err != ErrNoBlog {
		t.Fatalf("missing blog err = %v", err)
	}
	net.Ban(2, 4)
	if err := net.ShareBlog(2, id, 5); err != ErrBanned {
		t.Fatalf("banned share err = %v", err)
	}
	if _, err := net.PostBlog(2, 6); err != ErrBanned {
		t.Fatalf("banned post err = %v", err)
	}
}

func TestFeedEventsLogged(t *testing.T) {
	net := chainNet(t, 3)
	id, _ := net.PostBlog(0, 5)
	net.ShareBlog(1, id, 6)
	var post, share int
	for _, ev := range net.Events() {
		switch ev.Type {
		case EvBlogPost:
			post++
			if ev.Aux != int32(id) || ev.Actor != 0 {
				t.Fatalf("post event wrong: %+v", ev)
			}
		case EvBlogShare:
			share++
			if ev.Aux != int32(id) || ev.Actor != 1 || ev.Target != 0 {
				t.Fatalf("share event wrong: %+v", ev)
			}
		}
	}
	if post != 1 || share != 1 {
		t.Fatalf("feed events = %d posts %d shares", post, share)
	}
}

func TestBlogQueriesOutOfRange(t *testing.T) {
	net := chainNet(t, 2)
	if net.BlogAudience(5) != 0 {
		t.Fatal("out-of-range blog audience not zero")
	}
}
