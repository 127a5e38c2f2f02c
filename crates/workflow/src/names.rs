//! The specification's task-name index.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

use wolves_graph::{BlockVec, DiGraph};

use crate::task::{AtomicTask, DataDependency, TaskId};

type TaskGraph = DiGraph<AtomicTask, DataDependency>;

/// Table entry of a slot no task occupies (task slots stay far below it,
/// see [`crate::persist::MAX_SLOT_BOUND`]).
const EMPTY: u32 = u32::MAX;

/// Slots of the smallest table.
const MIN_CAPACITY: usize = 16;

/// Task name → task id of a [`crate::WorkflowSpec`]: a linear-probing hash
/// table whose entries are task slot indices.
///
/// * A probe compares the name it looks for against the graph's own
///   [`AtomicTask::name`] of each entry it passes, so no name is stored
///   twice. The table is kept at most half full, so probe runs stay short.
/// * A removal shifts the later entries of its probe run back into the
///   hole (no tombstones), so a lookup never scans dead entries and the
///   table never needs a cleanup pass.
/// * Entries live in the 4 KiB blocks of a [`BlockVec`]: a clone of the
///   spec shares every block, and a task add or remove afterwards copies
///   the one block it writes (two when its probe run crosses a block
///   edge), unless the add doubles the table.
/// * Names come from clients, so the hash is keyed by a random
///   [`RandomState`] per index: nobody can precompute names that pile up
///   in one probe run. A clone keeps the key, since it shares the blocks
///   laid out under it.
#[derive(Clone)]
pub(crate) struct NameIndex {
    slots: BlockVec<u32>,
    len: usize,
    hasher: RandomState,
}

impl NameIndex {
    /// An empty index.
    pub(crate) fn new() -> Self {
        Self::with_capacity(MIN_CAPACITY, RandomState::new())
    }

    /// Indexes every live task of `graph`.
    ///
    /// # Errors
    /// Returns the first name two live tasks share.
    pub(crate) fn from_graph(graph: &TaskGraph) -> Result<Self, String> {
        Self::build(graph, RandomState::new())
    }

    fn with_capacity(capacity: usize, hasher: RandomState) -> Self {
        NameIndex {
            slots: std::iter::repeat(EMPTY).take(capacity).collect(),
            len: 0,
            hasher,
        }
    }

    fn build(graph: &TaskGraph, hasher: RandomState) -> Result<Self, String> {
        let capacity = (graph.node_count() * 2)
            .next_power_of_two()
            .max(MIN_CAPACITY);
        let mut index = Self::with_capacity(capacity, hasher);
        for (id, task) in graph.nodes() {
            // one probe run per name: it ends at a task of the same name,
            // or at the free slot the name takes
            let mask = index.slots.len() - 1;
            let mut i = index.home(&task.name);
            loop {
                let entry = index.slots[i];
                if entry == EMPTY {
                    index.slots[i] = slot_of(id);
                    index.len += 1;
                    break;
                }
                if name_of(graph, TaskId::from_index(entry as usize)) == task.name {
                    return Err(task.name.clone());
                }
                i = (i + 1) & mask;
            }
        }
        Ok(index)
    }

    /// The id of the live task of `graph` named `name`.
    pub(crate) fn get(&self, graph: &TaskGraph, name: &str) -> Option<TaskId> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(name);
        loop {
            let entry = self.slots[i];
            if entry == EMPTY {
                return None;
            }
            let id = TaskId::from_index(entry as usize);
            if name_of(graph, id) == name {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Indexes `id`, a live task of `graph` whose name the index does not
    /// hold yet.
    pub(crate) fn insert(&mut self, graph: &TaskGraph, id: TaskId) {
        if (self.len + 1) * 2 > self.slots.len() {
            // the graph already holds the task, so the doubled table
            // indexes it too; its names are unique, so this cannot fail
            *self =
                Self::build(graph, self.hasher.clone()).expect("a spec's task names are unique");
            return;
        }
        self.place(name_of(graph, id), id);
    }

    /// Drops the entry of task `id`, which was named `name` and is no
    /// longer in `graph` (the entries shifted back are other tasks, whose
    /// names are read from `graph`).
    pub(crate) fn remove(&mut self, graph: &TaskGraph, name: &str, id: TaskId) {
        let mask = self.slots.len() - 1;
        let target = slot_of(id);
        let mut hole = self.home(name);
        loop {
            match self.slots[hole] {
                EMPTY => return,
                entry if entry == target => break,
                _ => hole = (hole + 1) & mask,
            }
        }
        // backward shift: an entry later in the run moves into the hole
        // unless its home lies cyclically after the hole
        let mut next = hole;
        loop {
            next = (next + 1) & mask;
            let entry = self.slots[next];
            if entry == EMPTY {
                break;
            }
            let home = self.home(name_of(graph, TaskId::from_index(entry as usize)));
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                self.slots[hole] = entry;
                hole = next;
            }
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
    }

    /// Writes `id` into the first free slot of `name`'s probe run.
    fn place(&mut self, name: &str, id: TaskId) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(name);
        while self.slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot_of(id);
        self.len += 1;
    }

    /// The slot a probe for `name` starts at.
    fn home(&self, name: &str) -> usize {
        // the table length is a power of two; the mask keeps the low bits
        self.hasher.hash_one(name) as usize & (self.slots.len() - 1)
    }
}

impl fmt::Debug for NameIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NameIndex")
            .field("len", &self.len)
            .field("capacity", &self.slots.len())
            .finish()
    }
}

fn slot_of(id: TaskId) -> u32 {
    u32::try_from(id.index()).expect("task slots stay below the slot bound")
}

fn name_of(graph: &TaskGraph, id: TaskId) -> &str {
    &graph
        .node_weight(id)
        .expect("the name index holds live tasks only")
        .name
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A graph with tasks `t0..t{n}` and their index.
    fn indexed(n: usize) -> (TaskGraph, NameIndex) {
        let mut graph = TaskGraph::new();
        for i in 0..n {
            graph.add_node(AtomicTask::new(format!("t{i}")));
        }
        let index = NameIndex::from_graph(&graph).unwrap();
        (graph, index)
    }

    #[test]
    fn lookups_find_every_task_and_nothing_else() {
        let (graph, index) = indexed(300);
        assert_eq!(index.len, 300);
        assert_eq!(index.slots.len(), 1024);
        for (id, task) in graph.nodes() {
            assert_eq!(index.get(&graph, &task.name), Some(id));
        }
        assert_eq!(index.get(&graph, "t300"), None);
        assert_eq!(index.get(&graph, ""), None);
    }

    #[test]
    fn from_graph_reports_a_shared_name() {
        let mut graph = TaskGraph::new();
        graph.add_node(AtomicTask::new("a"));
        graph.add_node(AtomicTask::new("b"));
        graph.add_node(AtomicTask::new("a"));
        assert_eq!(NameIndex::from_graph(&graph).unwrap_err(), "a");
    }

    #[test]
    fn inserts_double_the_table_past_half_full() {
        let (mut graph, mut index) = indexed(0);
        for i in 0..9 {
            let id = graph.add_node(AtomicTask::new(format!("n{i}")));
            index.insert(&graph, id);
        }
        // nine entries no longer fit half of sixteen slots
        assert_eq!(index.slots.len(), 32);
        for (id, task) in graph.nodes() {
            assert_eq!(index.get(&graph, &task.name), Some(id));
        }
    }

    #[test]
    fn an_edit_on_a_clone_copies_one_block() {
        let (mut graph, index) = indexed(1000);
        let mut copy = index.clone();
        let id = graph.add_node(AtomicTask::new("fresh"));
        copy.insert(&graph, id);
        // the table has two blocks; the new entry wrote one of them
        let shared = (0..2)
            .filter(|&b| {
                let block = |i: &NameIndex| i.slots.block_slice(b, 0, 1).as_ptr();
                block(&index) == block(&copy)
            })
            .count();
        assert_eq!(shared, 1);
        assert_eq!(index.get(&graph, "fresh"), None);
        assert_eq!(copy.get(&graph, "fresh"), Some(id));
    }
}
