//! Names are [`Symbol`]s.
//!
//! Every name the IR carries — a variable ([`Expr::Var`]), a buffer
//! ([`Expr::Load`], [`Stmt::Store`], [`Stmt::Allocate`]), an intrinsic
//! ([`Expr::Call`]) and a loop variable ([`Stmt::For`]) — is a [`Symbol`]:
//! a 4-byte index into one process-wide, append-only table of distinct
//! names. The e-graph language of the selector (`hardboiled::HbLang`) and
//! the front end (`hb_lang`'s funcs, images, schedules and expressions)
//! hold the same type, so lowering a pipeline puts its names into the IR as
//! they are, encoding a tree into an e-graph and decoding one back copies
//! names instead of interning or allocating them, and cloning,
//! dropping, comparing and hashing a tree never touches a `String`: symbol
//! equality and hashing are integer operations that read no table and take
//! no lock. With call arguments in a boxed slice that makes an [`Expr`] 32
//! bytes and a [`Stmt`] 80 (56 and 152 with `String` names and a
//! `Vec<Expr>`).
//!
//! The table is process-wide because everything that names a node is
//! context-free: the derived `Ord`, `Display`, the e-graph's operator keys
//! and the snapshot codec take no context argument, and a session's rule
//! patterns are built once and must equal nodes of every pooled graph (and
//! of every graph of every other session of a service). It grows with the
//! distinct identifiers the process has compiled and never shrinks — under
//! a hundred bytes plus the name per identifier ([`Symbol::interned`] is
//! exported as the `core.symbols.interned` gauge).
//!
//! # Bounded growth
//!
//! A name the process makes up itself must come from a bounded set, or the
//! table grows with every compile. The selector's generated names do:
//! temporaries and leaf-shape parameters are numbered per compile, from 0,
//! and take their symbols from a [`Numbered`] table, so a compile interns
//! one name per temporary or parameter *number* it reaches first and a
//! repeated compile interns nothing. Each number's symbol is interned once,
//! under the table lock, and read lock-free from then on.
//!
//! # Interning order reaches no output
//!
//! A symbol's *number* depends on what the process interned before, so
//! nothing that can reach a compiled program may read it: `Ord` (e-class
//! node lists are sorted, which fixes match order) compares the names when
//! the symbols differ, `Debug` and `Display` print the name, and the
//! selector's operator keys finish a hasher primed with the name. Programs,
//! node order and every deterministic count are therefore functions of the
//! names alone. [`Symbol::index`] hands the number out only to key side
//! tables ([`Slots`]).
//!
//! [`Expr`]: crate::expr::Expr
//! [`Expr::Var`]: crate::expr::Expr::Var
//! [`Expr::Load`]: crate::expr::Expr::Load
//! [`Expr::Call`]: crate::expr::Expr::Call
//! [`Stmt`]: crate::stmt::Stmt
//! [`Stmt::Store`]: crate::stmt::Stmt::Store
//! [`Stmt::For`]: crate::stmt::Stmt::For
//! [`Stmt::Allocate`]: crate::stmt::Stmt::Allocate

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::{LazyLock, Mutex, OnceLock};

/// An interned name (see the module docs): equal names, equal symbols.
///
/// `Eq`, `Hash` and `Clone` work on the 4-byte index alone; `Ord`,
/// `Display`, `Debug` and `Deref<Target = str>` go through the name, and
/// print and order as the name's `str` does.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

/// Name → symbol; the lock every [`Symbol::from`] takes, and the only one.
static SYMBOLS: LazyLock<Mutex<HashMap<&'static str, Symbol>>> = LazyLock::new(Mutex::default);

/// Symbol → name, readable without a lock.
static NAMES: Slots<&'static str> = Slots::new();

const SYMBOLS_LOCK: &str = "the symbol table lock is held across no panic";

impl Symbol {
    fn intern(name: &str) -> Symbol {
        let mut symbols = SYMBOLS.lock().expect(SYMBOLS_LOCK);
        if let Some(&symbol) = symbols.get(name) {
            return symbol;
        }
        let index = u32::try_from(symbols.len()).expect("fewer than 2^32 distinct names");
        // Names live as long as the process: the table is append-only.
        let name: &'static str = Box::leak(name.into());
        NAMES.get_or_init(index, || name);
        symbols.insert(name, Symbol(index));
        Symbol(index)
    }

    /// The name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        NAMES
            .get(self.0)
            .expect("a symbol is handed out after its name is written")
    }

    /// The symbol's number: its position in interning order. Only for
    /// keying a side table ([`Slots`]); it depends on what the process
    /// compiled before, so it must reach no output (see the module docs).
    #[must_use]
    pub fn index(self) -> u32 {
        self.0
    }

    /// How many distinct names this process has interned.
    #[must_use]
    pub fn interned() -> usize {
        SYMBOLS.lock().expect(SYMBOLS_LOCK).len()
    }
}

impl From<&str> for Symbol {
    fn from(name: &str) -> Self {
        Symbol::intern(name)
    }
}

impl From<&String> for Symbol {
    fn from(name: &String) -> Self {
        Symbol::intern(name)
    }
}

impl From<String> for Symbol {
    fn from(name: String) -> Self {
        Symbol::intern(&name)
    }
}

impl Deref for Symbol {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl Ord for Symbol {
    /// By name: a symbol's number depends on interning order (see the
    /// module docs).
    fn cmp(&self, other: &Self) -> Ordering {
        if self == other {
            Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// Write-once values indexed by a dense `u32` — a symbol's number, a
/// parameter's or a temporary's — readable without a lock: chunk `c` holds
/// `FIRST_CHUNK << c` slots and is allocated when its first slot is
/// written, so no value ever moves.
pub struct Slots<T> {
    chunks: [OnceLock<Box<[OnceLock<T>]>>; NUM_CHUNKS],
}

const FIRST_CHUNK: usize = 64;
const NUM_CHUNKS: usize = (u32::BITS - FIRST_CHUNK.ilog2() + 1) as usize;

impl<T> Slots<T> {
    /// No slot written.
    #[must_use]
    pub const fn new() -> Self {
        Slots {
            chunks: [const { OnceLock::new() }; NUM_CHUNKS],
        }
    }

    /// Chunk and offset of slot `index`.
    fn slot(index: u32) -> (usize, usize) {
        let i = index as usize + FIRST_CHUNK;
        let chunk = (i.ilog2() - FIRST_CHUNK.ilog2()) as usize;
        (chunk, i - (FIRST_CHUNK << chunk))
    }

    /// The value of slot `index`, if written.
    #[must_use]
    pub fn get(&self, index: u32) -> Option<&T> {
        let (chunk, offset) = Slots::<T>::slot(index);
        self.chunks[chunk]
            .get()
            .and_then(|slots| slots[offset].get())
    }

    /// The value of slot `index`, written by `init` if it was not yet (by
    /// one caller, when several race).
    pub fn get_or_init(&self, index: u32, init: impl FnOnce() -> T) -> &T {
        let (chunk, offset) = Slots::<T>::slot(index);
        let slots = self.chunks[chunk]
            .get_or_init(|| (0..FIRST_CHUNK << chunk).map(|_| OnceLock::new()).collect());
        slots[offset].get_or_init(init)
    }
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots::new()
    }
}

/// Generated names `{prefix}0`, `{prefix}1`, …: number `n`'s symbol is
/// interned the first time `n` is asked for and read lock-free after, so
/// names numbered per compile keep the symbol table bounded (see the
/// module docs).
pub struct Numbered {
    prefix: &'static str,
    symbols: Slots<Symbol>,
}

impl Numbered {
    /// The names `{prefix}N`.
    #[must_use]
    pub const fn new(prefix: &'static str) -> Self {
        Numbered {
            prefix,
            symbols: Slots::new(),
        }
    }

    /// `{prefix}{n}`.
    pub fn get(&self, n: u32) -> Symbol {
        *self
            .symbols
            .get_or_init(n, || Symbol::from(format!("{}{n}", self.prefix)))
    }

    /// The prefix every name of the table starts with.
    #[must_use]
    pub fn prefix(&self) -> &'static str {
        self.prefix
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_order_and_print_by_name() {
        // Interned in descending order: numbers and names disagree.
        let names = ["sym-order-zz", "sym-order-m", "sym-order-a"];
        let symbols: Vec<Symbol> = names.iter().map(|&n| n.into()).collect();
        assert!(symbols[0].0 < symbols[1].0 && symbols[1].0 < symbols[2].0);
        assert!(symbols[0] > symbols[1] && symbols[1] > symbols[2]);
        assert_eq!(symbols[1], Symbol::from(String::from("sym-order-m")));
        assert_eq!(symbols[1].to_string(), "sym-order-m");
        assert_eq!(format!("{:?}", symbols[1]), "\"sym-order-m\"");
        assert_eq!(&*symbols[2], "sym-order-a");
        assert!(symbols[2] == "sym-order-a" && symbols[2] != "sym-order-m");
    }

    #[test]
    fn concurrent_interning_agrees_on_every_name() {
        // Eight threads, released together, each interning a window of a
        // shared name list wide enough to cross the first chunks: names in
        // several windows must get one symbol whichever thread wins.
        const THREADS: usize = 8;
        let names: Vec<String> = (0..400).map(|i| format!("concurrent-sym-{i}")).collect();
        let before = Symbol::interned();
        let barrier = std::sync::Barrier::new(THREADS);
        let per_thread: Vec<Vec<(usize, Symbol)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (names, barrier) = (&names, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        (t * 40..t * 40 + 120)
                            .map(|i| (i, Symbol::from(&names[i])))
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("interning does not panic"))
                .collect()
        });
        let mut by_name = vec![None; names.len()];
        for (i, symbol) in per_thread.into_iter().flatten() {
            assert_eq!(symbol.as_str(), names[i]);
            assert_eq!(*by_name[i].get_or_insert(symbol), symbol, "{}", names[i]);
            assert_eq!(Symbol::from(names[i].as_str()), symbol);
        }
        assert!(by_name.iter().all(Option::is_some));
        // Other tests intern too; these 400 were all new.
        assert!(Symbol::interned() >= before + names.len());
    }

    #[test]
    fn numbered_names_intern_once_per_number() {
        static NAMES: Numbered = Numbered::new("__numbered_test");
        // Past the first chunk, so a second chunk is allocated.
        let first: Vec<Symbol> = (0..100).map(|n| NAMES.get(n)).collect();
        let after = Symbol::interned();
        let again: Vec<Symbol> = (0..100).map(|n| NAMES.get(n)).collect();
        assert_eq!(first, again);
        assert_eq!(
            Symbol::interned(),
            after,
            "a reached number interns nothing"
        );
        assert_eq!(first[7], "__numbered_test7");
        assert_eq!(NAMES.prefix(), "__numbered_test");
    }

    #[test]
    fn ir_nodes_are_small_and_symbols_one_u32() {
        // What every clone, move and drop of a tree copies per node.
        assert_eq!(std::mem::size_of::<Symbol>(), 4);
        assert_eq!(std::mem::size_of::<crate::expr::Expr>(), 32);
        assert_eq!(std::mem::size_of::<crate::stmt::Stmt>(), 80);
    }
}
