//! User authentication and group-based access control.
//!
//! Section 4.1: "To execute a keyword query, the user first authenticates
//! herself to an index server and supplies the query terms ... The index
//! server determines the user's access rights".  The reproduction models this
//! with HMAC-based bearer tokens derived from a server secret and a per-user
//! group membership table.

use std::collections::{HashMap, HashSet};

use zerber_corpus::GroupId;
use zerber_crypto::hmac::constant_time_eq;
use zerber_crypto::HmacSha256;

use crate::error::ProtocolError;

/// An authentication token presented by a client.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AuthToken(pub [u8; 32]);

/// Server-side user directory: who exists and which groups they belong to.
#[derive(Clone)]
pub struct AccessControl {
    /// HMAC keyed with the server secret, nothing absorbed; cloned for every
    /// token, so issuing or checking one hashes only the user name.
    token_mac: HmacSha256,
    memberships: HashMap<String, HashSet<GroupId>>,
}

impl std::fmt::Debug for AccessControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the (pre-keyed) server secret.
        f.debug_struct("AccessControl")
            .field("users", &self.memberships.len())
            .finish_non_exhaustive()
    }
}

impl AccessControl {
    /// Creates a directory with the given server secret.
    pub fn new(server_secret: &[u8]) -> Self {
        AccessControl {
            token_mac: HmacSha256::new(server_secret),
            memberships: HashMap::new(),
        }
    }

    /// Registers a user with her groups (replaces previous memberships).
    pub fn register_user(&mut self, user: &str, groups: &[GroupId]) {
        self.memberships
            .insert(user.to_string(), groups.iter().copied().collect());
    }

    /// Adds a user to an additional group.
    pub fn grant(&mut self, user: &str, group: GroupId) {
        self.memberships
            .entry(user.to_string())
            .or_default()
            .insert(group);
    }

    /// Removes a user from a group.
    pub fn revoke(&mut self, user: &str, group: GroupId) {
        if let Some(set) = self.memberships.get_mut(user) {
            set.remove(&group);
        }
    }

    /// Number of registered users.
    pub fn num_users(&self) -> usize {
        self.memberships.len()
    }

    /// The token a legitimate user obtains out of band (e.g. from the
    /// enterprise identity provider).
    pub fn issue_token(&self, user: &str) -> AuthToken {
        let mut mac = self.token_mac.clone();
        mac.update(user.as_bytes());
        AuthToken(mac.finalize())
    }

    /// Verifies the token and returns the user's groups.
    pub fn authenticate(
        &self,
        user: &str,
        token: &AuthToken,
    ) -> Result<Vec<GroupId>, ProtocolError> {
        let expected = self.issue_token(user);
        if !constant_time_eq(&expected.0, &token.0) {
            return Err(ProtocolError::AuthenticationFailed(user.to_string()));
        }
        let groups = self
            .memberships
            .get(user)
            .ok_or_else(|| ProtocolError::AuthenticationFailed(user.to_string()))?;
        let mut out: Vec<GroupId> = groups.iter().copied().collect();
        out.sort();
        Ok(out)
    }

    /// Checks that a user may access a specific group.
    pub fn check_member(
        &self,
        user: &str,
        token: &AuthToken,
        group: GroupId,
    ) -> Result<(), ProtocolError> {
        let groups = self.authenticate(user, token)?;
        if groups.contains(&group) {
            Ok(())
        } else {
            Err(ProtocolError::AccessDenied {
                user: user.to_string(),
                group: group.0,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acl() -> AccessControl {
        let mut acl = AccessControl::new(b"server-secret");
        acl.register_user("john", &[GroupId(0), GroupId(2)]);
        acl.register_user("alice", &[GroupId(1)]);
        acl
    }

    #[test]
    fn valid_tokens_authenticate_and_list_groups() {
        let acl = acl();
        let token = acl.issue_token("john");
        let groups = acl.authenticate("john", &token).unwrap();
        assert_eq!(groups, vec![GroupId(0), GroupId(2)]);
        assert_eq!(acl.num_users(), 2);
    }

    #[test]
    fn forged_or_foreign_tokens_are_rejected() {
        let acl = acl();
        let alice_token = acl.issue_token("alice");
        assert!(matches!(
            acl.authenticate("john", &alice_token),
            Err(ProtocolError::AuthenticationFailed(_))
        ));
        let forged = AuthToken([0u8; 32]);
        assert!(acl.authenticate("alice", &forged).is_err());
    }

    #[test]
    fn unknown_users_are_rejected_even_with_a_consistent_token() {
        let acl = acl();
        let token = acl.issue_token("mallory");
        assert!(matches!(
            acl.authenticate("mallory", &token),
            Err(ProtocolError::AuthenticationFailed(_))
        ));
    }

    #[test]
    fn group_membership_checks_enforce_access() {
        let acl = acl();
        let token = acl.issue_token("john");
        assert!(acl.check_member("john", &token, GroupId(0)).is_ok());
        assert!(matches!(
            acl.check_member("john", &token, GroupId(1)),
            Err(ProtocolError::AccessDenied { group: 1, .. })
        ));
    }

    #[test]
    fn grant_and_revoke_update_memberships() {
        let mut acl = acl();
        let token = acl.issue_token("alice");
        assert!(acl.check_member("alice", &token, GroupId(3)).is_err());
        acl.grant("alice", GroupId(3));
        assert!(acl.check_member("alice", &token, GroupId(3)).is_ok());
        acl.revoke("alice", GroupId(3));
        assert!(acl.check_member("alice", &token, GroupId(3)).is_err());
    }

    #[test]
    fn a_token_differing_only_in_its_last_byte_is_rejected() {
        let acl = acl();
        let mut token = acl.issue_token("john");
        token.0[31] ^= 0x01;
        assert!(matches!(
            acl.authenticate("john", &token),
            Err(ProtocolError::AuthenticationFailed(_))
        ));
    }

    #[test]
    fn tokens_are_hmac_sha256_of_the_user_name() {
        // The token format is handed to users out of band: pin it.
        assert_eq!(
            acl().issue_token("john").0,
            HmacSha256::mac(b"server-secret", b"john")
        );
        assert_eq!(
            zerber_crypto::sha256::to_hex(&acl().issue_token("john").0),
            "b51b1b19ca661ce626c92d12f9f694fbd5d406c1464d5e9595d572f423fa3944"
        );
    }

    #[test]
    fn debug_does_not_leak_the_server_secret() {
        let acl = AccessControl::new(&[0xA7; 32]);
        assert_eq!(format!("{acl:?}"), "AccessControl { users: 0, .. }");
    }

    #[test]
    fn different_server_secrets_produce_different_tokens() {
        let a = AccessControl::new(b"secret-a");
        let b = AccessControl::new(b"secret-b");
        assert_ne!(a.issue_token("john"), b.issue_token("john"));
    }
}
