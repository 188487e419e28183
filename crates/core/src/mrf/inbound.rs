//! The activity a policy judges: borrowed until a policy rewrites it.

use crate::model::{Activity, Post};
use crate::time::SimTime;
use std::ops::Deref;

/// Copy-on-write holder of the activity flowing down an MRF chain.
///
/// Either a borrowed template plus the receive-time stamp it should carry
/// (activity `published` and post `created`), or an owned activity. It
/// derefs to [`Activity`] for reading; the first [`to_mut`](Self::to_mut)
/// clones a borrowed template and applies the stamp. A policy that
/// changes nothing therefore never clones, and one that rewrites cannot
/// forget to: the only way to a `&mut Activity` is through `to_mut`.
///
/// While borrowed, the template's own `published` / `created` fields are
/// not the stamped values; policies read the stamp through
/// [`published`](Self::published).
#[derive(Debug)]
pub struct Inbound<'a>(Repr<'a>);

// `Owned` holds the activity by value on purpose: an `Inbound` lives on
// the stack for one chain walk, and boxing would add an allocation to
// every owned walk and every rewrite.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Repr<'a> {
    Borrowed {
        template: &'a Activity,
        stamp: SimTime,
    },
    Owned(Activity),
}

impl<'a> Inbound<'a> {
    /// `template` as if it had been stamped with `published`, without
    /// cloning it.
    pub fn borrowed(template: &'a Activity, published: SimTime) -> Self {
        Inbound(Repr::Borrowed {
            template,
            stamp: published,
        })
    }

    /// An activity the caller already owns (and stamped, if it wanted to).
    pub fn owned(activity: Activity) -> Self {
        Inbound(Repr::Owned(activity))
    }

    /// When the carried object was published, as policies must read it:
    /// the pending stamp while borrowed, else the post's `created` for a
    /// `Create` and the activity's `published` otherwise.
    pub fn published(&self) -> SimTime {
        match &self.0 {
            Repr::Borrowed { stamp, .. } => *stamp,
            Repr::Owned(a) => a.note().map_or(a.published, |p| p.created),
        }
    }

    /// Whether no policy has rewritten the activity yet (it is still the
    /// borrowed template).
    pub fn is_borrowed(&self) -> bool {
        matches!(self.0, Repr::Borrowed { .. })
    }

    /// Mutable access; a borrowed template is cloned and stamped first.
    pub fn to_mut(&mut self) -> &mut Activity {
        if let Repr::Borrowed { template, stamp } = self.0 {
            self.0 = Repr::Owned(stamped(template, stamp));
        }
        let Repr::Owned(a) = &mut self.0 else {
            unreachable!("converted above")
        };
        a
    }

    /// The carried post for rewriting, when `rewrites` says this post
    /// needs it: `None` (and no clone) for non-`Create`s and for posts
    /// `rewrites` rejects.
    pub fn note_mut_if(&mut self, rewrites: impl FnOnce(&Post) -> bool) -> Option<&mut Post> {
        if !self.note().is_some_and(rewrites) {
            return None;
        }
        self.to_mut().note_mut()
    }

    /// The surviving activity, stamped; clones only if still borrowed.
    pub fn into_owned(self) -> Activity {
        match self.0 {
            Repr::Borrowed { template, stamp } => stamped(template, stamp),
            Repr::Owned(a) => a,
        }
    }
}

impl Deref for Inbound<'_> {
    type Target = Activity;

    fn deref(&self) -> &Activity {
        match &self.0 {
            Repr::Borrowed { template, .. } => template,
            Repr::Owned(a) => a,
        }
    }
}

fn stamped(template: &Activity, stamp: SimTime) -> Activity {
    let mut activity = template.clone();
    activity.published = stamp;
    if let Some(post) = activity.note_mut() {
        post.created = stamp;
    }
    activity
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ActivityId, Domain, PostId, UserId, UserRef};

    fn template() -> Activity {
        let author = UserRef::new(UserId(1), Domain::new("a.example"));
        Activity::create(
            ActivityId(1),
            Post::stub(PostId(1), author, SimTime(5), "x"),
        )
    }

    #[test]
    fn first_write_clones_and_stamps() {
        let t = template();
        let mut inbound = Inbound::borrowed(&t, SimTime(90));
        assert_eq!(inbound.published(), SimTime(90));
        assert_eq!(
            inbound.note().unwrap().created,
            SimTime(5),
            "reads see the template"
        );
        assert!(inbound.note_mut_if(|p| p.content.is_empty()).is_none());
        assert!(inbound.is_borrowed(), "a declined rewrite must not clone");
        inbound.note_mut_if(|_| true).unwrap().content = "y".into();
        assert!(!inbound.is_borrowed());
        let out = inbound.into_owned();
        assert_eq!(
            (out.published, out.note().unwrap().created),
            (SimTime(90), SimTime(90))
        );
        assert_eq!(&*out.note().unwrap().content, "y");
        assert_eq!(
            &*t.note().unwrap().content,
            "x",
            "the template is untouched"
        );
    }

    #[test]
    fn untouched_borrow_still_yields_the_stamped_activity() {
        let t = template();
        let out = Inbound::borrowed(&t, SimTime(90)).into_owned();
        assert_eq!(
            (out.published, out.note().unwrap().created),
            (SimTime(90), SimTime(90))
        );
    }

    #[test]
    fn owned_published_is_the_post_creation_time() {
        let mut a = template();
        a.published = SimTime(7);
        assert_eq!(Inbound::owned(a).published(), SimTime(5));
    }
}
