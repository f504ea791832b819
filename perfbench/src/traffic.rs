//! The seeded request generator and the reply checker.
//!
//! Every request is one Redis command on a fresh connection. The
//! generator draws each request's class from a workload's mix and its
//! key and value from a SplitMix64 stream, so the same seed gives the
//! same requests. The checker knows what the guest may answer to each
//! request even though any replica of the fleet may serve it.

use std::collections::BTreeSet;

/// Keys the generator uses. Each replica's guest table has eight slots
/// and a ninth distinct key answers `-ERR full`, so at most eight keys
/// keep every SET answerable with `+OK` on every replica.
pub const KEYS: usize = 8;

/// SplitMix64: a tiny, fully determined pseudo-random stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A number in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Request classes, each with its own host-latency mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Get,
    Set,
    Del,
    Ping,
    /// `CONFIG v`: the feature the serve and churn fleets disable, so it
    /// gets the redirect reply while disabled.
    Config,
}

impl Class {
    /// Every class, in the order per-class metrics are reported.
    pub const ALL: [Class; 5] = [
        Class::Get,
        Class::Set,
        Class::Del,
        Class::Ping,
        Class::Config,
    ];

    /// Metric-name stem.
    pub fn name(self) -> &'static str {
        match self {
            Class::Get => "get",
            Class::Set => "set",
            Class::Del => "del",
            Class::Ping => "ping",
            Class::Config => "config",
        }
    }

    /// Position in [`Class::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A traffic mix: per-mille weight of each class, summing to 1000.
pub type Mix = &'static [(Class, u32)];

/// GET-dominated with rare DEL, so most GETs hit (one latency mode) and
/// p50 falls inside the GET-hit mode; SET, the costliest class, is
/// small enough that p99 falls inside its mode. CONFIG is the feature
/// serve and churn fleets disable, so those requests get the redirect
/// reply there.
pub const SERVE_MIX: Mix = &[
    (Class::Get, 850),
    (Class::Set, 40),
    (Class::Del, 10),
    (Class::Ping, 50),
    (Class::Config, 50),
];

/// A profiling round's wanted phase: the serve mix without CONFIG, the
/// feature the round's undesired phase exercises.
pub const WANTED_MIX: Mix = &[
    (Class::Get, 900),
    (Class::Set, 40),
    (Class::Del, 10),
    (Class::Ping, 50),
];

/// One generated request.
#[derive(Debug, Clone)]
pub struct Request {
    pub class: Class,
    key: usize,
    value: Vec<u8>,
    pub bytes: Vec<u8>,
}

/// The generator plus the model the checker compares replies against.
#[derive(Debug)]
pub struct Traffic {
    rng: Rng,
    /// Every value a SET stored per key. Replicas keep separate tables,
    /// so a GET may return any value ever set for its key, or nil.
    stored: Vec<BTreeSet<Vec<u8>>>,
    /// Whether `CONFIG` is disabled (redirected to the error reply).
    pub config_disabled: bool,
}

impl Traffic {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Traffic {
            rng: Rng::new(seed),
            stored: vec![BTreeSet::new(); KEYS],
            config_disabled: false,
        }
    }

    fn value(&mut self) -> Vec<u8> {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
        let len = 4 + self.rng.below(9) as usize;
        (0..len)
            .map(|_| ALPHABET[self.rng.below(ALPHABET.len() as u64) as usize])
            .collect()
    }

    /// A request of the given class on a random key.
    pub fn request(&mut self, class: Class) -> Request {
        let key = self.rng.below(KEYS as u64) as usize;
        self.request_on(class, key)
    }

    /// A request of the given class on `key`.
    pub fn request_on(&mut self, class: Class, key: usize) -> Request {
        let value = match class {
            Class::Set | Class::Config => self.value(),
            _ => Vec::new(),
        };
        let text = |value: &[u8]| String::from_utf8_lossy(value).into_owned();
        let line = match class {
            Class::Get => format!("GET k{key}\n"),
            Class::Set => format!("SET k{key} {}\n", text(&value)),
            Class::Del => format!("DEL k{key}\n"),
            Class::Ping => "PING\n".to_owned(),
            Class::Config => format!("CONFIG {}\n", text(&value)),
        };
        Request {
            class,
            key,
            value,
            bytes: line.into_bytes(),
        }
    }

    /// A request drawn from `mix`.
    pub fn next(&mut self, mix: Mix) -> Request {
        let mut pick = self.rng.below(1000) as u32;
        for &(class, weight) in mix {
            if pick < weight {
                return self.request(class);
            }
            pick -= weight;
        }
        unreachable!("mix weights sum to 1000")
    }

    /// Whether `reply` is a correct answer to `request`, updating the
    /// model with what a successful SET stored.
    pub fn check(&mut self, request: &Request, reply: &[u8]) -> bool {
        match request.class {
            Class::Ping => reply == b"+PONG\n",
            Class::Set => {
                let ok = reply == b"+OK\n";
                if ok {
                    self.stored[request.key].insert(request.value.clone());
                }
                ok
            }
            Class::Del => reply == b"+OK\n" || reply == b"$-1\n",
            Class::Get => {
                reply == b"$-1\n"
                    || reply
                        .strip_suffix(b"\n")
                        .is_some_and(|value| self.stored[request.key].contains(value))
            }
            Class::Config if self.config_disabled => reply == dynacut_apps::redis::ERR_BLOCKED,
            Class::Config => reply == b"+OK\n",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests() {
        let mut a = Traffic::new(7);
        let mut b = Traffic::new(7);
        for _ in 0..100 {
            assert_eq!(a.next(SERVE_MIX).bytes, b.next(SERVE_MIX).bytes);
        }
    }

    #[test]
    fn get_accepts_only_nil_or_a_stored_value() {
        let mut traffic = Traffic::new(1);
        let set = traffic.request(Class::Set);
        let get = Request {
            class: Class::Get,
            key: set.key,
            value: Vec::new(),
            bytes: Vec::new(),
        };
        let mut stored = set.value.clone();
        stored.push(b'\n');
        assert!(!traffic.check(&get, &stored));
        assert!(traffic.check(&set, b"+OK\n"));
        assert!(traffic.check(&get, &stored));
        assert!(traffic.check(&get, b"$-1\n"));
        assert!(!traffic.check(&get, b"-ERR full\n"));
    }

    #[test]
    fn mixes_sum_to_one_thousand() {
        for mix in [SERVE_MIX, WANTED_MIX] {
            assert_eq!(mix.iter().map(|(_, w)| w).sum::<u32>(), 1000);
        }
    }
}
