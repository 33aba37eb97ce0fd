// Dependency graph of simulator tasks. Builders (runtime/graph_builder)
// create tasks and add data/control edges; the engine consumes the graph
// read-only. Edges are uniform: the successor may start only after the
// predecessor completes — exactly the semantics of TensorFlow control
// dependencies the paper's runtime relies on (Fig. 11).
#pragma once

#include <vector>

#include "sim/task.h"

namespace dapple::sim {

class TaskGraph {
 public:
  /// Adds a task and returns its id. The id in the task struct is assigned
  /// by the graph.
  TaskId AddTask(Task task);

  /// Pre-sizes the graph for `num_tasks` tasks, so building it never moves
  /// the tasks already added.
  void Reserve(int num_tasks);

  /// Declares that `successor` starts only after `predecessor` completes.
  /// Duplicate edges are tolerated (counted once per insertion; the engine
  /// tracks in-degree, so duplicates are semantically harmless but wasteful —
  /// builders avoid them).
  void AddEdge(TaskId predecessor, TaskId successor);

  int num_tasks() const { return static_cast<int>(tasks_.size()); }
  const Task& task(TaskId id) const;
  Task& mutable_task(TaskId id);
  const std::vector<Task>& tasks() const { return tasks_; }

  const std::vector<TaskId>& successors(TaskId id) const;
  const std::vector<TaskId>& predecessors(TaskId id) const;
  int in_degree(TaskId id) const;

  /// Highest resource id referenced + 1.
  int num_resources() const;

  /// Highest pool id referenced + 1.
  int num_pools() const;

 private:
  std::vector<Task> tasks_;
  std::vector<std::vector<TaskId>> successors_;
  std::vector<std::vector<TaskId>> predecessors_;
  std::vector<int> in_degree_;
};

}  // namespace dapple::sim
