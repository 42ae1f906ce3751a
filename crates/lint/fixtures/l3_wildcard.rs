// Fixture: L3 wildcard dispatch. Checked by tests/fixtures.rs with clippy
// at the L3 levels that crates/core/src/lib.rs sets on `codec` and
// `runner`.

pub fn dispatch(m: Message) -> u8 {
    match m {
        Message::Shares { .. } => 1,
        Message::Commit { .. } => 2,
        _ => 0,
    }
}

// A two-variant enum, like `runner::Engine`: the wildcard covers one
// variant, which only the second lint of the pair catches.
pub fn engine(e: Engine) -> u8 {
    match e {
        Engine::Event => 1,
        _ => 0,
    }
}

// A binding catch-all over an enum discards variants just the same.
pub fn named(m: Message) -> u8 {
    match m {
        Message::Abort => 3,
        other => other.weight(),
    }
}

// Legal: every variant named, and `_` over an open byte domain.
pub fn exhaustive(m: Message, tag: u8) -> u8 {
    let low = match tag {
        0 => 0,
        _ => 1,
    };
    match m {
        Message::Shares { .. } | Message::Commit { .. } => low,
        Message::Lambda | Message::Abort => 2,
    }
}

pub enum Message {
    Shares { task: usize },
    Commit { task: usize },
    Lambda,
    Abort,
}

impl Message {
    fn weight(&self) -> u8 {
        4
    }
}

pub enum Engine {
    Event,
    Polling,
}
