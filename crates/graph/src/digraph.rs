//! Adjacency-list directed graph with stable typed indices.
//!
//! Node and edge slots live in [`BlockVec`]s, so a clone copies one handle
//! per block of slots and an edge edit afterwards copies only the two node
//! blocks and the one edge block it writes.

use crate::blockvec::BlockVec;
use crate::error::GraphError;
use crate::id::{EdgeId, NodeId};

/// Internal node storage. The adjacency lists hold only live edges (edge
/// removal prunes them eagerly), each with its far endpoint, so walking a
/// node's neighbours never touches the edge slots.
#[derive(Debug, Clone)]
struct NodeSlot<N> {
    weight: Option<N>,
    outgoing: Vec<(EdgeId, NodeId)>,
    incoming: Vec<(EdgeId, NodeId)>,
}

/// Internal edge storage.
#[derive(Debug, Clone)]
struct EdgeSlot<E> {
    weight: Option<E>,
    source: NodeId,
    target: NodeId,
}

/// A directed graph with node payloads `N` and edge payloads `E`.
///
/// * Node and edge ids are **stable**: removing a node or edge never changes
///   the id of any other node or edge (removed slots become tombstones).
/// * Parallel edges are allowed by [`DiGraph::add_edge`]; the stricter
///   [`DiGraph::add_edge_unique`] rejects duplicates, which is what the
///   workflow layer uses (a data dependency either exists or it does not).
/// * Self loops are rejected by both insertion methods, since workflow
///   specifications and provenance graphs never contain them.
/// * Cloning is cheap and structurally shared: the slots are stored in
///   `Arc`'d blocks ([`BlockVec`]), a clone copies the block handles
///   and each later edit copies only the blocks it writes. Cloning needs no
///   `Clone` payloads; edits need `N: Clone` and `E: Clone`, since they may
///   copy a shared block.
#[derive(Debug)]
pub struct DiGraph<N, E> {
    nodes: BlockVec<NodeSlot<N>>,
    edges: BlockVec<EdgeSlot<E>>,
    live_nodes: usize,
    live_edges: usize,
}

impl<N, E> Clone for DiGraph<N, E> {
    /// Copies the block handles; the slots stay shared until one side
    /// writes them.
    fn clone(&self) -> Self {
        DiGraph {
            nodes: self.nodes.clone(),
            edges: self.edges.clone(),
            live_nodes: self.live_nodes,
            live_edges: self.live_edges,
        }
    }
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> DiGraph<N, E> {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        DiGraph {
            nodes: BlockVec::new(),
            edges: BlockVec::new(),
            live_nodes: 0,
            live_edges: 0,
        }
    }

    /// Creates an empty graph. The capacities are accepted for
    /// compatibility only: block storage allocates one block as it fills,
    /// so there is nothing to pre-allocate.
    #[must_use]
    pub fn with_capacity(_nodes: usize, _edges: usize) -> Self {
        Self::new()
    }

    /// Number of live (non-removed) nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of live (non-removed) edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// Upper bound (exclusive) on node indices ever allocated, including
    /// tombstones. Useful for sizing dense per-node tables.
    #[must_use]
    pub fn node_bound(&self) -> usize {
        self.nodes.len()
    }

    /// Upper bound (exclusive) on edge indices ever allocated, including
    /// tombstones. Together with [`DiGraph::node_bound`] this describes the
    /// exact slot layout a serialised graph must reproduce so that ids
    /// assigned after a restore match the ids a live graph would assign.
    #[must_use]
    pub fn edge_bound(&self) -> usize {
        self.edges.len()
    }

    /// Rebuilds a graph from explicit slot vectors, `None` marking a
    /// tombstone. This is the restore path of persistent storage: node and
    /// edge ids are allocated by slot index, so a graph restored from the
    /// slots of a serialised one assigns exactly the same ids to future
    /// insertions as the original would have.
    ///
    /// # Errors
    /// Returns an error if an edge references a tombstoned/out-of-range
    /// node or is a self loop.
    pub fn from_slots(
        nodes: Vec<Option<N>>,
        edges: Vec<Option<(NodeId, NodeId, E)>>,
    ) -> Result<Self, GraphError> {
        // each adjacency list is allocated once, at its final length
        let mut degrees = vec![(0, 0); nodes.len()];
        for &(source, target, _) in edges.iter().flatten() {
            if let Some((out, _)) = degrees.get_mut(source.index()) {
                *out += 1;
            }
            if let Some((_, into)) = degrees.get_mut(target.index()) {
                *into += 1;
            }
        }
        let mut node_slots: Vec<NodeSlot<N>> = nodes
            .into_iter()
            .zip(degrees)
            .map(|(weight, (out, into))| NodeSlot {
                weight,
                outgoing: Vec::with_capacity(out),
                incoming: Vec::with_capacity(into),
            })
            .collect();
        let live_nodes = node_slots
            .iter()
            .filter(|slot| slot.weight.is_some())
            .count();
        let mut live_edges = 0;
        // edge slots go straight into their blocks
        let edges = edges
            .into_iter()
            .enumerate()
            .map(|(index, slot)| {
                let Some((source, target, weight)) = slot else {
                    // the endpoints of a tombstoned edge are never read
                    // (every accessor checks the weight first); any valid
                    // NodeId works as a placeholder
                    return Ok(EdgeSlot {
                        weight: None,
                        source: NodeId::from_index(0),
                        target: NodeId::from_index(0),
                    });
                };
                if source == target {
                    return Err(GraphError::SelfLoop(source));
                }
                for node in [source, target] {
                    if !node_slots
                        .get(node.index())
                        .is_some_and(|slot| slot.weight.is_some())
                    {
                        return Err(GraphError::InvalidNode(node));
                    }
                }
                let id = EdgeId::from_index(index);
                node_slots[source.index()].outgoing.push((id, target));
                node_slots[target.index()].incoming.push((id, source));
                live_edges += 1;
                Ok(EdgeSlot {
                    weight: Some(weight),
                    source,
                    target,
                })
            })
            .collect::<Result<BlockVec<_>, _>>()?;
        Ok(DiGraph {
            nodes: node_slots.into_iter().collect(),
            edges,
            live_nodes,
            live_edges,
        })
    }

    /// Returns `true` if the graph contains no live nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live_nodes == 0
    }

    /// Returns `true` if `node` refers to a live node of this graph.
    #[must_use]
    pub fn contains_node(&self, node: NodeId) -> bool {
        self.nodes
            .get(node.index())
            .is_some_and(|slot| slot.weight.is_some())
    }

    /// Returns `true` if `edge` refers to a live edge of this graph.
    #[must_use]
    pub fn contains_edge(&self, edge: EdgeId) -> bool {
        self.edges
            .get(edge.index())
            .is_some_and(|slot| slot.weight.is_some())
    }

    /// Returns a reference to a node's payload.
    pub fn node_weight(&self, node: NodeId) -> Result<&N, GraphError> {
        self.nodes
            .get(node.index())
            .and_then(|slot| slot.weight.as_ref())
            .ok_or(GraphError::InvalidNode(node))
    }

    /// Returns a reference to an edge's payload.
    pub fn edge_weight(&self, edge: EdgeId) -> Result<&E, GraphError> {
        self.edges
            .get(edge.index())
            .and_then(|slot| slot.weight.as_ref())
            .ok_or(GraphError::InvalidEdge(edge))
    }

    /// Returns the `(source, target)` endpoints of an edge.
    pub fn edge_endpoints(&self, edge: EdgeId) -> Result<(NodeId, NodeId), GraphError> {
        let slot = self
            .edges
            .get(edge.index())
            .filter(|slot| slot.weight.is_some())
            .ok_or(GraphError::InvalidEdge(edge))?;
        Ok((slot.source, slot.target))
    }

    /// Finds an edge between `source` and `target`, if one exists.
    #[must_use]
    pub fn find_edge(&self, source: NodeId, target: NodeId) -> Option<EdgeId> {
        if !self.contains_node(source) {
            return None;
        }
        self.nodes[source.index()]
            .outgoing
            .iter()
            .find(|&&(_, to)| to == target)
            .map(|&(edge, _)| edge)
    }

    /// Iterates over the ids of all live nodes in ascending id order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.weight.as_ref().map(|_| NodeId::from_index(i)))
    }

    /// Iterates over `(id, &payload)` for all live nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &N)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.weight.as_ref().map(|w| (NodeId::from_index(i), w)))
    }

    /// Iterates over the ids of all live edges in ascending id order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.weight.as_ref().map(|_| EdgeId::from_index(i)))
    }

    /// Iterates over `(id, source, target, &payload)` for all live edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId, &E)> + '_ {
        self.edges.iter().enumerate().filter_map(|(i, slot)| {
            slot.weight
                .as_ref()
                .map(|w| (EdgeId::from_index(i), slot.source, slot.target, w))
        })
    }

    /// Iterates over the direct successors of `node` (ignoring removed edges).
    ///
    /// Parallel edges yield the same successor multiple times.
    pub fn successors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .get(node.index())
            .map(|slot| slot.outgoing.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(|&(_, target)| target)
    }

    /// Iterates over the direct predecessors of `node`.
    pub fn predecessors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .get(node.index())
            .map(|slot| slot.incoming.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(|&(_, source)| source)
    }

    /// Out-degree of a node (0 for unknown nodes).
    #[must_use]
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.successors(node).count()
    }

    /// In-degree of a node (0 for unknown nodes).
    #[must_use]
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.predecessors(node).count()
    }

    /// Iterates over outgoing edge ids of `node`.
    pub fn outgoing_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.nodes
            .get(node.index())
            .map(|slot| slot.outgoing.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(|&(edge, _)| edge)
    }

    /// Iterates over incoming edge ids of `node`.
    pub fn incoming_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.nodes
            .get(node.index())
            .map(|slot| slot.incoming.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(|&(edge, _)| edge)
    }

    /// The lowest-id live edge that runs between the same endpoints as an
    /// earlier live edge, if any: the edge [`DiGraph::add_edge_unique`]
    /// would have refused first, had the edges been added in id order.
    /// One pass over the adjacency lists, which hold each node's edges in
    /// id order.
    #[must_use]
    pub fn first_parallel_edge(&self) -> Option<EdgeId> {
        // `seen[t]` is 1 + the last source whose list showed target `t`
        let mut seen = vec![0usize; self.nodes.len()];
        let mut first: Option<EdgeId> = None;
        for (source, slot) in self.nodes.iter().enumerate() {
            for &(edge, target) in &slot.outgoing {
                if seen[target.index()] == source + 1 {
                    first = Some(first.map_or(edge, |f| f.min(edge)));
                    break;
                }
                seen[target.index()] = source + 1;
            }
        }
        first
    }

    /// Maps the graph into a structurally identical graph with different
    /// payload types.
    pub fn map<N2, E2>(
        &self,
        mut node_map: impl FnMut(NodeId, &N) -> N2,
        mut edge_map: impl FnMut(EdgeId, &E) -> E2,
    ) -> DiGraph<N2, E2> {
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, slot)| NodeSlot {
                weight: slot
                    .weight
                    .as_ref()
                    .map(|w| node_map(NodeId::from_index(i), w)),
                outgoing: slot.outgoing.clone(),
                incoming: slot.incoming.clone(),
            })
            .collect();
        let edges = self
            .edges
            .iter()
            .enumerate()
            .map(|(i, slot)| EdgeSlot {
                weight: slot
                    .weight
                    .as_ref()
                    .map(|w| edge_map(EdgeId::from_index(i), w)),
                source: slot.source,
                target: slot.target,
            })
            .collect();
        DiGraph {
            nodes,
            edges,
            live_nodes: self.live_nodes,
            live_edges: self.live_edges,
        }
    }
}

/// Edits write through [`BlockVec`]'s copy-on-write accessors, so they need
/// clonable payloads: a block another clone still shares is copied first.
impl<N: Clone, E: Clone> DiGraph<N, E> {
    /// Adds a node with the given payload and returns its id.
    pub fn add_node(&mut self, weight: N) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(NodeSlot {
            weight: Some(weight),
            outgoing: Vec::new(),
            incoming: Vec::new(),
        });
        self.live_nodes += 1;
        id
    }

    /// Returns a mutable reference to a node's payload.
    pub fn node_weight_mut(&mut self, node: NodeId) -> Result<&mut N, GraphError> {
        // check before writing: a failed lookup copies no shared block
        if !self.contains_node(node) {
            return Err(GraphError::InvalidNode(node));
        }
        self.nodes[node.index()]
            .weight
            .as_mut()
            .ok_or(GraphError::InvalidNode(node))
    }

    /// Adds a directed edge `source -> target`, allowing parallel edges.
    ///
    /// # Errors
    /// Returns an error if either endpoint is invalid or if the edge would be
    /// a self loop.
    pub fn add_edge(
        &mut self,
        source: NodeId,
        target: NodeId,
        weight: E,
    ) -> Result<EdgeId, GraphError> {
        if source == target {
            return Err(GraphError::SelfLoop(source));
        }
        if !self.contains_node(source) {
            return Err(GraphError::InvalidNode(source));
        }
        if !self.contains_node(target) {
            return Err(GraphError::InvalidNode(target));
        }
        let id = EdgeId::from_index(self.edges.len());
        self.edges.push(EdgeSlot {
            weight: Some(weight),
            source,
            target,
        });
        self.nodes[source.index()].outgoing.push((id, target));
        self.nodes[target.index()].incoming.push((id, source));
        self.live_edges += 1;
        Ok(id)
    }

    /// Adds a directed edge, rejecting duplicates between the same endpoints.
    ///
    /// # Errors
    /// Returns [`GraphError::DuplicateEdge`] if an edge `source -> target`
    /// already exists, plus the errors of [`DiGraph::add_edge`].
    pub fn add_edge_unique(
        &mut self,
        source: NodeId,
        target: NodeId,
        weight: E,
    ) -> Result<EdgeId, GraphError> {
        if self.find_edge(source, target).is_some() {
            return Err(GraphError::DuplicateEdge(source, target));
        }
        self.add_edge(source, target, weight)
    }

    /// Removes an edge, returning its payload.
    pub fn remove_edge(&mut self, edge: EdgeId) -> Result<E, GraphError> {
        // check before writing: a failed removal copies no shared block
        if !self.contains_edge(edge) {
            return Err(GraphError::InvalidEdge(edge));
        }
        let slot = &mut self.edges[edge.index()];
        let weight = slot.weight.take().ok_or(GraphError::InvalidEdge(edge))?;
        let source = slot.source;
        let target = slot.target;
        self.nodes[source.index()]
            .outgoing
            .retain(|&(e, _)| e != edge);
        self.nodes[target.index()]
            .incoming
            .retain(|&(e, _)| e != edge);
        self.live_edges -= 1;
        Ok(weight)
    }

    /// Removes a node and all incident edges, returning its payload.
    pub fn remove_node(&mut self, node: NodeId) -> Result<N, GraphError> {
        if !self.contains_node(node) {
            return Err(GraphError::InvalidNode(node));
        }
        let incident: Vec<EdgeId> = self.nodes[node.index()]
            .outgoing
            .iter()
            .chain(self.nodes[node.index()].incoming.iter())
            .map(|&(edge, _)| edge)
            .collect();
        for edge in incident {
            if self.contains_edge(edge) {
                self.remove_edge(edge)?;
            }
        }
        let weight = self.nodes[node.index()]
            .weight
            .take()
            .ok_or(GraphError::InvalidNode(node))?;
        self.live_nodes -= 1;
        Ok(weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph<&'static str, u32>, [NodeId; 4]) {
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, 1).unwrap();
        g.add_edge(a, c, 2).unwrap();
        g.add_edge(b, d, 3).unwrap();
        g.add_edge(c, d, 4).unwrap();
        (g, [a, b, c, d])
    }

    #[test]
    fn counts_and_membership() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        for n in [a, b, c, d] {
            assert!(g.contains_node(n));
        }
        assert!(!g.contains_node(NodeId::from_index(99)));
    }

    #[test]
    fn successors_and_predecessors() {
        let (g, [a, b, c, d]) = diamond();
        let succ_a: Vec<NodeId> = g.successors(a).collect();
        assert_eq!(succ_a, vec![b, c]);
        let pred_d: Vec<NodeId> = g.predecessors(d).collect();
        assert_eq!(pred_d, vec![b, c]);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(d), 2);
        assert_eq!(g.out_degree(d), 0);
    }

    #[test]
    fn self_loops_rejected() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        assert_eq!(g.add_edge(a, a, ()), Err(GraphError::SelfLoop(a)));
    }

    #[test]
    fn duplicate_edges_rejected_by_unique_insert() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge_unique(a, b, ()).unwrap();
        assert_eq!(
            g.add_edge_unique(a, b, ()),
            Err(GraphError::DuplicateEdge(a, b))
        );
        // the permissive method still allows parallel edges
        assert!(g.add_edge(a, b, ()).is_ok());
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn the_first_parallel_edge_is_the_lowest_repeat() {
        let (mut g, [a, b, c, d]) = diamond();
        assert_eq!(g.first_parallel_edge(), None);
        let late = g.add_edge(a, b, 7).unwrap();
        let later = g.add_edge(c, d, 8).unwrap();
        assert_eq!(g.first_parallel_edge(), Some(late));
        g.remove_edge(late).unwrap();
        assert_eq!(g.first_parallel_edge(), Some(later));
        // a removed original leaves its repeat the only edge between them
        let original = g.find_edge(c, d).unwrap();
        g.remove_edge(original).unwrap();
        assert_eq!(g.first_parallel_edge(), None);
    }

    #[test]
    fn invalid_endpoints_rejected() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let ghost = NodeId::from_index(17);
        assert_eq!(
            g.add_edge(a, ghost, ()),
            Err(GraphError::InvalidNode(ghost))
        );
        assert_eq!(
            g.add_edge(ghost, a, ()),
            Err(GraphError::InvalidNode(ghost))
        );
    }

    #[test]
    fn edge_lookup_and_endpoints() {
        let (g, [a, b, _, d]) = diamond();
        let e = g.find_edge(a, b).unwrap();
        assert_eq!(g.edge_endpoints(e).unwrap(), (a, b));
        assert_eq!(*g.edge_weight(e).unwrap(), 1);
        assert!(g.find_edge(a, d).is_none());
    }

    #[test]
    fn remove_edge_keeps_other_ids_stable() {
        let (mut g, [a, b, c, d]) = diamond();
        let e_ab = g.find_edge(a, b).unwrap();
        let e_cd = g.find_edge(c, d).unwrap();
        assert_eq!(g.remove_edge(e_ab).unwrap(), 1);
        assert_eq!(g.edge_count(), 3);
        assert!(!g.contains_edge(e_ab));
        assert!(g.contains_edge(e_cd));
        assert_eq!(g.edge_endpoints(e_cd).unwrap(), (c, d));
        assert!(g.remove_edge(e_ab).is_err());
        let succ_a: Vec<NodeId> = g.successors(a).collect();
        assert_eq!(succ_a, vec![c]);
    }

    #[test]
    fn remove_node_removes_incident_edges() {
        let (mut g, [a, b, c, d]) = diamond();
        assert_eq!(g.remove_node(b).unwrap(), "b");
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(!g.contains_node(b));
        assert!(g.contains_node(a));
        let succ_a: Vec<NodeId> = g.successors(a).collect();
        assert_eq!(succ_a, vec![c]);
        let pred_d: Vec<NodeId> = g.predecessors(d).collect();
        assert_eq!(pred_d, vec![c]);
    }

    #[test]
    fn node_weight_access_and_mutation() {
        let (mut g, [a, ..]) = diamond();
        assert_eq!(*g.node_weight(a).unwrap(), "a");
        *g.node_weight_mut(a).unwrap() = "alpha";
        assert_eq!(*g.node_weight(a).unwrap(), "alpha");
        assert!(g.node_weight(NodeId::from_index(50)).is_err());
    }

    #[test]
    fn iteration_skips_tombstones() {
        let (mut g, [a, b, _, _]) = diamond();
        g.remove_node(b).unwrap();
        let ids: Vec<NodeId> = g.node_ids().collect();
        assert_eq!(ids.len(), 3);
        assert!(!ids.contains(&b));
        assert!(ids.contains(&a));
        assert_eq!(g.edges().count(), 2);
    }

    #[test]
    fn from_slots_reproduces_tombstones_and_future_ids() {
        let (mut g, [a, b, c, d]) = diamond();
        g.remove_node(b).unwrap();
        let e_cd = g.find_edge(c, d).unwrap();
        g.remove_edge(e_cd).unwrap();
        // serialise to slots by hand
        let nodes: Vec<Option<&str>> = (0..g.node_bound())
            .map(|i| g.node_weight(NodeId::from_index(i)).ok().copied())
            .collect();
        let edges: Vec<Option<(NodeId, NodeId, u32)>> = (0..g.edge_bound())
            .map(|i| {
                let id = EdgeId::from_index(i);
                g.edge_endpoints(id)
                    .ok()
                    .map(|(s, t)| (s, t, *g.edge_weight(id).unwrap()))
            })
            .collect();
        let mut restored = DiGraph::from_slots(nodes, edges).unwrap();
        assert_eq!(restored.node_count(), g.node_count());
        assert_eq!(restored.edge_count(), g.edge_count());
        assert_eq!(restored.node_bound(), g.node_bound());
        assert_eq!(restored.edge_bound(), g.edge_bound());
        assert!(!restored.contains_node(b));
        assert!(!restored.contains_edge(e_cd));
        // the next allocations land on the same ids in both graphs
        assert_eq!(restored.add_node("e"), g.add_node("e"));
        let restored_edge = restored.add_edge(a, d, 9u32).unwrap();
        assert_eq!(restored_edge, g.add_edge(a, d, 9u32).unwrap());
        // invalid slot payloads are rejected
        assert!(DiGraph::<&str, u32>::from_slots(
            vec![Some("x")],
            vec![Some((NodeId::from_index(0), NodeId::from_index(1), 1u32))],
        )
        .is_err());
        assert!(DiGraph::<&str, u32>::from_slots(
            vec![Some("x")],
            vec![Some((NodeId::from_index(0), NodeId::from_index(0), 1u32))],
        )
        .is_err());
    }

    #[test]
    fn map_preserves_structure() {
        let (g, [a, _, _, d]) = diamond();
        let mapped: DiGraph<String, String> =
            g.map(|_, w| w.to_uppercase(), |_, w| format!("w{w}"));
        assert_eq!(mapped.node_count(), 4);
        assert_eq!(mapped.edge_count(), 4);
        assert_eq!(mapped.node_weight(a).unwrap(), "A");
        assert_eq!(mapped.predecessors(d).count(), 2);
    }
}
