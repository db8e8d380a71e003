"""The task table is the one definition of a task: no other module names
a task, and the schema's task list gives each task's fields as the table
does."""

import ast
import glob
import os
import re

from albertlab.runner import TASKS

ROOT = os.path.join(os.path.dirname(__file__), "..")
PACKAGE = sorted(glob.glob(os.path.join(ROOT, "src", "albertlab", "*.py")))
SCHEMA = os.path.join(ROOT, "docs", "schema.md")

# string literals equal to a task name that do not name the task: the
# structure kind of an isotope, and the key under which an isotope task's
# entry reports its identity suite
NOT_TASKS = {("isotopy.py", "isotope"), ("runner.py", "axioms")}


def task_literals(source):
    """The string constants in `source` that equal a task name, outside
    the assignment of TASKS."""
    tree = ast.parse(source)
    table = {id(n) for node in tree.body if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "TASKS"
                     for t in node.targets)
             for n in ast.walk(node)}
    return {n.value for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and n.value in TASKS
            and id(n) not in table}


def test_no_module_names_a_task_outside_the_table():
    named = set()
    for path in PACKAGE:
        with open(path) as fh:
            named |= {(os.path.basename(path), s)
                      for s in task_literals(fh.read())}
    assert named == NOT_TASKS
    # the scan sees a task name outside the table
    assert task_literals('TASKS = {"axioms": 1}\nx = "dump_forms"\n') == \
        {"dump_forms"}


def schema_task_examples():
    """{task: its example node's field names} for each bullet of the
    schema's task list, read off the bullet's leading `{"task": ...}`."""
    with open(SCHEMA) as fh:
        text = fh.read()
    section = text.split("### Tasks", 1)[1].split("\n#", 1)[0]
    out = {}
    for m in re.finditer(r'^- `(\{"task": "(\w+)"[^`]*\})`', section,
                         re.MULTILINE):
        example, name = m.groups()
        assert name not in out, name
        out[name] = set(re.findall(r'"(\w+)":', example)) - {"task"}
    return out


def test_schema_lists_each_task_with_the_fields_it_reads():
    assert schema_task_examples() == {
        name: set(t.fields) for name, t in TASKS.items()}
