//! MOML → workflow specification + view.

use wolves_workflow::{AtomicTask, DataDependency, TaskId, WorkflowSpec, WorkflowView};

use crate::error::MomlError;
use crate::model::MomlDocument;
use crate::xml;

/// The result of importing a MOML document.
#[derive(Debug, Clone)]
pub struct ImportedWorkflow {
    /// The workflow specification.
    pub spec: WorkflowSpec,
    /// The pre-defined view, when the document contained composite actors.
    /// Atomic tasks outside any composite become singleton composites so the
    /// view is always a partition.
    pub view: Option<WorkflowView>,
}

/// Imports a MOML document (paper §3.2: "A user may load into the system a
/// workflow specification and a pre-defined workflow view defined in MOML").
///
/// # Errors
/// Fails on malformed XML, structurally invalid MOML, dangling references,
/// duplicate task names or cyclic dataflow.
pub fn from_moml(input: &str) -> Result<ImportedWorkflow, MomlError> {
    let root = xml::parse(input)?;
    let document = MomlDocument::from_xml(&root)?;
    import_document(&document)
}

/// Imports an already parsed document model.
///
/// # Errors
/// Same as [`from_moml`].
pub fn import_document(document: &MomlDocument) -> Result<ImportedWorkflow, MomlError> {
    let mut spec = WorkflowSpec::new(document.name.clone());
    for atomic in &document.atomics {
        let task = AtomicTask::new(atomic.name.clone()).with_param("class", atomic.class.clone());
        spec.add_task(task)?;
    }
    // names resolve through the spec's own index: one lookup per reference
    let id_of = |spec: &WorkflowSpec, name: &str| -> Result<TaskId, MomlError> {
        spec.task_by_name(name)
            .ok_or_else(|| MomlError::DanglingReference(name.to_owned()))
    };
    for connection in &document.connections {
        let from = id_of(&spec, &connection.from)?;
        let to = id_of(&spec, &connection.to)?;
        // MOML models occasionally repeat links; treat duplicates as one
        // dependency instead of failing the import.
        match spec.add_dependency(from, to, DataDependency::unnamed()) {
            Ok(()) => {}
            Err(wolves_workflow::WorkflowError::Graph(
                wolves_graph::GraphError::DuplicateEdge(_, _),
            )) => {}
            Err(e) => return Err(e.into()),
        }
    }
    spec.ensure_acyclic()?;

    let view = if document.has_view() {
        let mut groups: Vec<(String, Vec<TaskId>)> = Vec::new();
        for composite in &document.composites {
            let members = composite
                .members
                .iter()
                .map(|m| id_of(&spec, m))
                .collect::<Result<Vec<_>, _>>()?;
            groups.push((composite.name.clone(), members));
        }
        for atomic in &document.atomics {
            if atomic.parent_composite.is_none() {
                let id = id_of(&spec, &atomic.name).expect("atomic was just inserted");
                groups.push((atomic.name.clone(), vec![id]));
            }
        }
        Some(WorkflowView::from_groups(
            &spec,
            format!("{}-view", document.name),
            groups,
        )?)
    } else {
        None
    };
    Ok(ImportedWorkflow { spec, view })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolves_core::validate::validate;

    const SAMPLE: &str = r#"<?xml version="1.0"?>
<entity name="mini-phylo" class="ptolemy.actor.TypedCompositeActor">
  <entity name="Extract annotations" class="org.kepler.Extract"/>
  <entity name="Extract sequences" class="org.kepler.Extract"/>
  <entity name="Curate and align" class="ptolemy.actor.TypedCompositeActor">
    <entity name="Curate" class="org.kepler.Curate"/>
    <entity name="Align" class="org.kepler.Align"/>
  </entity>
  <entity name="Format annotations" class="org.kepler.Format"/>
  <entity name="Format alignment" class="org.kepler.Format"/>
  <relation name="r1" class="ptolemy.actor.TypedIORelation"/>
  <relation name="r2" class="ptolemy.actor.TypedIORelation"/>
  <relation name="r3" class="ptolemy.actor.TypedIORelation"/>
  <relation name="r4" class="ptolemy.actor.TypedIORelation"/>
  <link port="Extract annotations.output" relation="r1"/>
  <link port="Curate.input" relation="r1"/>
  <link port="Curate.output" relation="r2"/>
  <link port="Format annotations.input" relation="r2"/>
  <link port="Extract sequences.output" relation="r3"/>
  <link port="Align.input" relation="r3"/>
  <link port="Align.output" relation="r4"/>
  <link port="Format alignment.input" relation="r4"/>
</entity>"#;

    #[test]
    fn import_builds_spec_and_view() {
        let imported = from_moml(SAMPLE).unwrap();
        assert_eq!(imported.spec.name(), "mini-phylo");
        assert_eq!(imported.spec.task_count(), 6);
        assert_eq!(imported.spec.dependency_count(), 4);
        let view = imported.view.unwrap();
        // 1 composite + 4 singleton composites
        assert_eq!(view.composite_count(), 5);
        // the imported composite {Curate, Align} is unsound — exactly the
        // Figure 1(b) situation
        let report = validate(&imported.spec, &view);
        assert_eq!(report.unsound_composites().len(), 1);
    }

    #[test]
    fn import_without_composites_has_no_view() {
        let doc = r#"<entity name="flat">
  <entity name="a" class="X"/>
  <entity name="b" class="X"/>
  <relation name="r" class="R"/>
  <link port="a.output" relation="r"/>
  <link port="b.input" relation="r"/>
</entity>"#;
        let imported = from_moml(doc).unwrap();
        assert!(imported.view.is_none());
        assert_eq!(imported.spec.dependency_count(), 1);
    }

    #[test]
    fn cyclic_moml_is_rejected() {
        let doc = r#"<entity name="cyclic">
  <entity name="a" class="X"/>
  <entity name="b" class="X"/>
  <relation name="r1" class="R"/>
  <relation name="r2" class="R"/>
  <link port="a.output" relation="r1"/>
  <link port="b.input" relation="r1"/>
  <link port="b.output" relation="r2"/>
  <link port="a.input" relation="r2"/>
</entity>"#;
        let err = from_moml(doc).unwrap_err();
        assert!(matches!(err, MomlError::Workflow(_)));
    }

    #[test]
    fn unknown_names_are_dangling_references() {
        let sample = MomlDocument::from_xml(&xml::parse(SAMPLE).unwrap()).unwrap();
        // an unknown connection endpoint
        let mut document = sample.clone();
        document.connections.push(crate::model::MomlConnection {
            from: "Curate".to_owned(),
            to: "ghost".to_owned(),
        });
        let err = import_document(&document).unwrap_err();
        assert!(matches!(err, MomlError::DanglingReference(name) if name == "ghost"));
        // an unknown composite member
        let mut document = sample;
        document.composites[0].members.push("phantom".to_owned());
        let err = import_document(&document).unwrap_err();
        assert!(matches!(err, MomlError::DanglingReference(name) if name == "phantom"));
    }

    #[test]
    fn duplicate_links_do_not_fail_the_import() {
        let doc = r#"<entity name="dup">
  <entity name="a" class="X"/>
  <entity name="b" class="X"/>
  <relation name="r" class="R"/>
  <link port="a.output" relation="r"/>
  <link port="a.out2" relation="r"/>
  <link port="b.input" relation="r"/>
</entity>"#;
        let imported = from_moml(doc).unwrap();
        assert_eq!(imported.spec.dependency_count(), 1);
    }
}
