//! Data buffers — the unit of exchange between filters.
//!
//! Streams deliver data "in user-defined data chunks (data buffers)". A
//! buffer carries an opaque, shareable payload plus the metadata the runtime
//! needs: a routing **tag** (used by explicit tag-modulo streams) and the
//! buffer's **wire size** (used for byte accounting and by the cluster
//! simulator's communication model).
//!
//! Payloads are reference-counted (`Arc`), so handing a buffer from a
//! producer to a co-located consumer is literally "copying the pointer to
//! the data buffer" as in DataCutter; cloning a buffer clones the `Arc`,
//! never the data.

use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// A typed, shareable data buffer flowing along a stream.
#[derive(Clone)]
pub struct DataBuffer {
    payload: Arc<dyn Any + Send + Sync>,
    size_bytes: usize,
    tag: u64,
}

impl DataBuffer {
    /// Wraps a payload with an explicit wire size and routing tag.
    pub fn new<T: Any + Send + Sync>(payload: T, size_bytes: usize, tag: u64) -> Self {
        Self {
            payload: Arc::new(payload),
            size_bytes,
            tag,
        }
    }

    /// Wraps an already-shared payload (avoids a second allocation when the
    /// producer keeps a reference).
    pub fn from_arc<T: Any + Send + Sync>(payload: Arc<T>, size_bytes: usize, tag: u64) -> Self {
        Self {
            payload,
            size_bytes,
            tag,
        }
    }

    /// Downcasts the payload to a concrete type.
    pub fn downcast<T: Any + Send + Sync>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }

    /// Downcasts or panics with a descriptive message — for filters that
    /// know their input type by construction. (The engine contains the
    /// panic, but prefer [`DataBuffer::payload`] in filter code: a typed
    /// `App`-kind error beats a contained panic in diagnostics.)
    pub fn expect<T: Any + Send + Sync>(&self) -> &T {
        self.downcast::<T>().unwrap_or_else(|| {
            panic!(
                "buffer payload is not a {} (tag {})",
                std::any::type_name::<T>(),
                self.tag
            )
        })
    }

    /// Downcasts the payload, returning a typed [`FilterError`] naming the
    /// expected type and the tag on mismatch — the non-panicking
    /// counterpart of [`DataBuffer::expect`] for filter callbacks.
    pub fn payload<T: Any + Send + Sync>(&self) -> Result<&T, crate::filter::FilterError> {
        self.downcast::<T>().ok_or_else(|| {
            crate::filter::FilterError::msg(format!(
                "buffer payload is not a {} (tag {})",
                std::any::type_name::<T>(),
                self.tag
            ))
        })
    }

    /// Consumes the buffer and returns the payload **by value**. When this
    /// buffer holds the last reference (the common case on tag-modulo and
    /// demand-driven streams, where exactly one copy receives each buffer),
    /// the payload moves out without copying — letting the consumer reuse
    /// its backing store instead of cloning it. Extra live references fall
    /// back to a clone; a type mismatch is a typed `App`-kind error naming
    /// the expected type and the tag.
    pub fn into_payload<T: Any + Send + Sync + Clone>(
        self,
    ) -> Result<T, crate::filter::FilterError> {
        let tag = self.tag;
        let arc: Arc<T> = self.payload.downcast::<T>().map_err(|_| {
            crate::filter::FilterError::msg(format!(
                "buffer payload is not a {} (tag {tag})",
                std::any::type_name::<T>(),
            ))
        })?;
        Ok(Arc::try_unwrap(arc).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// The buffer's wire size in bytes: what would cross the network if the
    /// producer and consumer were on different nodes.
    pub const fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    /// The routing tag (application-defined; chunk ids in the Haralick
    /// pipeline).
    pub const fn tag(&self) -> u64 {
        self.tag
    }

    /// The [`TypeId`](std::any::TypeId) of the concrete payload type — how
    /// a wire codec looks up the encoder for an otherwise opaque buffer
    /// without trial downcasts.
    pub fn payload_type_id(&self) -> std::any::TypeId {
        (*self.payload).type_id()
    }

    /// Number of live references to the payload (diagnostics/tests).
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.payload)
    }
}

impl fmt::Debug for DataBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DataBuffer")
            .field("size_bytes", &self.size_bytes)
            .field("tag", &self.tag)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downcast_roundtrip() {
        let b = DataBuffer::new(vec![1u16, 2, 3], 6, 42);
        assert_eq!(b.tag(), 42);
        assert_eq!(b.size_bytes(), 6);
        assert_eq!(b.downcast::<Vec<u16>>().unwrap(), &vec![1, 2, 3]);
        assert!(b.downcast::<String>().is_none());
    }

    #[test]
    fn clone_is_pointer_copy() {
        let b = DataBuffer::new([0u8; 64], 64, 0);
        let c = b.clone();
        assert_eq!(b.ref_count(), 2);
        assert_eq!(c.ref_count(), 2);
        // Both views see the same payload address (same Arc).
        assert!(std::ptr::eq(
            b.downcast::<[u8; 64]>().unwrap(),
            c.downcast::<[u8; 64]>().unwrap()
        ));
    }

    #[test]
    #[should_panic(expected = "buffer payload is not a")]
    fn expect_panics_on_wrong_type() {
        let b = DataBuffer::new(3u32, 4, 1);
        let _ = b.expect::<String>();
    }

    #[test]
    fn into_payload_moves_when_uniquely_held() {
        let b = DataBuffer::new(vec![1u16, 2, 3], 6, 5);
        let v: Vec<u16> = b.into_payload().unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        // Shared payloads fall back to a clone; both views stay valid.
        let shared = Arc::new(vec![9u16; 4]);
        let b = DataBuffer::from_arc(shared.clone(), 8, 6);
        let v: Vec<u16> = b.into_payload().unwrap();
        assert_eq!(v, *shared);
        // And mismatches are typed errors, not panics.
        let b = DataBuffer::new(3u32, 4, 7);
        let e = b.into_payload::<String>().unwrap_err();
        assert!(e.message().contains("tag 7"), "{e}");
    }

    #[test]
    fn payload_returns_typed_error_on_mismatch() {
        let b = DataBuffer::new(3u32, 4, 7);
        assert_eq!(*b.payload::<u32>().unwrap(), 3);
        let e = b.payload::<String>().unwrap_err();
        assert_eq!(e.kind(), crate::filter::FilterErrorKind::App);
        assert!(e.message().contains("tag 7"), "{e}");
    }
}
