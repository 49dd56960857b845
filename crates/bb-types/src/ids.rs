//! Small identifier newtypes for actors in an experiment.

use std::fmt;

/// Identifies one server node (validator / miner / peer) in a network.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into per-node vectors.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Identifies one benchmark client process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct ClientId(pub u32);

impl ClientId {
    /// Index into per-client vectors.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client{}", self.0)
    }
}

/// Identifies one account in an open-loop load population. Unlike
/// [`ClientId`] (a handful of closed-loop clients, dense, `u32`), account
/// populations reach millions of distinct identities, so the id is a `u64`
/// and everything keyed by it (keypairs, nonces) is derived or stored
/// sparsely on first touch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct AccountId(pub u64);

impl AccountId {
    /// The raw population index.
    pub fn index(self) -> u64 {
        self.0
    }
}

/// A closed-loop client signs as the account of the same index in its
/// family.
impl From<ClientId> for AccountId {
    fn from(client: ClientId) -> AccountId {
        AccountId(client.0.into())
    }
}

impl fmt::Display for AccountId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "acct{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_index() {
        assert_eq!(NodeId(3).to_string(), "node3");
        assert_eq!(ClientId(2).to_string(), "client2");
        assert_eq!(NodeId(7).index(), 7);
        assert_eq!(ClientId(7).index(), 7);
        assert_eq!(AccountId(1 << 40).to_string(), format!("acct{}", 1u64 << 40));
        assert_eq!(AccountId(9).index(), 9);
    }
}
