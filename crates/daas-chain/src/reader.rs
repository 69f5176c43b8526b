//! The cheap read-only chain view.
//!
//! The snowball sampler, the family clusterer, and the measurement
//! analytics are all read-mostly walks over two structures: the
//! columnar tx arena ([`TxStore`], indexed by [`TxId`]) and the
//! per-account history index. The index is a plain `Vec<Vec<TxId>>`
//! indexed by interned [`AddrId`]: ids are dense first-seen `u32`s, so
//! a lookup is one bounds-checked index — no hashing anywhere on the
//! `record_tx` hot path. Ids never reach the serialized artifact: the
//! chain's serializer resolves the index back to the address-keyed
//! map the pre-columnar format used, byte-identically (and rebuilds
//! the index from the tx arena on deserialize — the history is fully
//! derivable).

use eth_types::{AddrId, Address};

use crate::store::{TxStore, TxView};
use crate::tx::TxId;

/// Transaction ids touching the interned account in `histories`, in
/// chain order (empty for accounts without history).
#[inline]
pub(crate) fn history_of(histories: &[Vec<TxId>], id: AddrId) -> &[TxId] {
    histories.get(id.index()).map(Vec::as_slice).unwrap_or(&[])
}

/// A copyable, `Sync` read-only view over the chain's two hot read
/// paths: the columnar tx arena and the history index. Workers take a
/// `ChainReader` by value instead of borrowing the whole
/// [`Chain`](crate::Chain), so the pool never contends on (or extends)
/// the chain borrow.
#[derive(Debug, Clone, Copy)]
pub struct ChainReader<'a> {
    store: &'a TxStore,
    histories: &'a [Vec<TxId>],
}

impl<'a> ChainReader<'a> {
    pub(crate) fn new(store: &'a TxStore, histories: &'a [Vec<TxId>]) -> Self {
        ChainReader { store, histories }
    }

    /// Looks up a transaction by id.
    #[inline]
    pub fn tx(&self, id: TxId) -> TxView<'a> {
        self.store.view(id)
    }

    /// The columnar tx arena (all transactions, in chain order).
    #[inline]
    pub fn transactions(&self) -> &'a TxStore {
        self.store
    }

    /// Transaction ids touching `address`, in chain order.
    pub fn txs_of(&self, address: Address) -> &'a [TxId] {
        match self.store.addr_id(address) {
            Some(id) => history_of(self.histories, id),
            None => &[],
        }
    }

    /// Transaction ids touching the interned account, in chain order.
    #[inline]
    pub fn txs_of_id(&self, id: AddrId) -> &'a [TxId] {
        history_of(self.histories, id)
    }
}

/// Appends `tx` to the interned account's history, growing the index
/// to cover `id` first.
#[inline]
pub(crate) fn push_history(histories: &mut Vec<Vec<TxId>>, id: AddrId, tx: TxId) {
    let i = id.index();
    if i >= histories.len() {
        histories.resize_with(i + 1, Vec::new);
    }
    histories[i].push(tx);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_grows_to_cover_ids_and_misses_read_empty() {
        let mut interner = eth_types::AddrInterner::new();
        let ids: Vec<AddrId> =
            (0..4u8).map(|n| interner.intern(Address([n; 20]))).collect();
        let mut histories = Vec::new();
        push_history(&mut histories, ids[2], 10);
        push_history(&mut histories, ids[2], 11);
        push_history(&mut histories, ids[0], 12);
        assert_eq!(histories.len(), 3);
        assert_eq!(history_of(&histories, ids[2]), &[10, 11]);
        assert_eq!(history_of(&histories, ids[0]), &[12]);
        assert_eq!(history_of(&histories, ids[1]), &[] as &[TxId]);
        assert_eq!(history_of(&histories, ids[3]), &[] as &[TxId], "past the end");
    }
}
