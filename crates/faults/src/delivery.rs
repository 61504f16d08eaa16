//! The delivery stage [`FaultPlan`](crate::FaultPlan) and
//! [`WirePlan`](crate::WirePlan) share: duplication, reordering through
//! one hold-back slot, and the queue the consumer is served from. Which
//! items get this far, and in what state, is each plan's `process`.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::Rng;

/// In-order delivery with one slot for a held-back item, counting what it
/// did.
#[derive(Default)]
pub(crate) struct Delivery<T> {
    ready: VecDeque<T>,
    /// The reordered item and how many more deliveries it waits for.
    held: Option<(T, u8)>,
    /// Items handed to the consumer (duplicates included).
    pub(crate) emitted: u64,
    pub(crate) duplicated: u64,
    pub(crate) reordered: u64,
}

impl<T: Clone> Delivery<T> {
    /// Deliver `item` under the two delivery faults, each a probability:
    /// `duplicate` delivers it twice, `reorder` holds it back until one to
    /// three later items have gone out (when the slot is free). The draws
    /// are the duplicate coin, the reorder coin, then the delay if held.
    pub(crate) fn deliver(&mut self, item: T, duplicate: f64, reorder: f64, rng: &mut SmallRng) {
        let duplicate = rng.gen::<f64>() < duplicate;
        let hold = rng.gen::<f64>() < reorder;
        if duplicate {
            self.duplicated += 1;
            self.emit(item.clone());
        }
        if hold && self.held.is_none() {
            self.held = Some((item, rng.gen_range(1..=3u8)));
            self.reordered += 1;
        } else {
            self.emit(item);
        }
    }

    /// Queue an item for the consumer, aging the held one and releasing it
    /// behind this item when its delay has run out.
    fn emit(&mut self, item: T) {
        self.ready.push_back(item);
        self.emitted += 1;
        if let Some((_, remaining)) = &mut self.held {
            *remaining = remaining.saturating_sub(1);
            if *remaining == 0 {
                let released = self.flush();
                self.ready.extend(released);
            }
        }
    }

    /// The next item ready for the consumer.
    pub(crate) fn pop(&mut self) -> Option<T> {
        self.ready.pop_front()
    }

    /// Release the held item, if any: its delay ran out, or the stream did.
    pub(crate) fn flush(&mut self) -> Option<T> {
        let (item, _) = self.held.take()?;
        self.emitted += 1;
        Some(item)
    }
}
