#include "sim/graph.h"

#include <algorithm>

#include "common/error.h"

namespace dapple::sim {

TaskId TaskGraph::AddTask(Task task) {
  DAPPLE_CHECK_GE(task.duration, 0.0) << "task " << task.name;
  DAPPLE_CHECK_GE(task.resource, 0) << "task " << task.name;
  const TaskId id = static_cast<TaskId>(tasks_.size());
  task.id = id;
  tasks_.push_back(std::move(task));
  // Pipeline tasks rarely have more than four edges either way: one
  // allocation per edge list instead of a growth series.
  successors_.emplace_back().reserve(4);
  predecessors_.emplace_back().reserve(4);
  in_degree_.push_back(0);
  return id;
}

void TaskGraph::Reserve(int num_tasks) {
  const auto n = static_cast<std::size_t>(num_tasks);
  tasks_.reserve(n);
  successors_.reserve(n);
  predecessors_.reserve(n);
  in_degree_.reserve(n);
}

void TaskGraph::AddEdge(TaskId predecessor, TaskId successor) {
  DAPPLE_CHECK(predecessor >= 0 && predecessor < num_tasks()) << "bad edge source";
  DAPPLE_CHECK(successor >= 0 && successor < num_tasks()) << "bad edge target";
  DAPPLE_CHECK_NE(predecessor, successor) << "self edge on task " << predecessor;
  auto& succ = successors_[static_cast<std::size_t>(predecessor)];
  if (std::find(succ.begin(), succ.end(), successor) != succ.end()) return;
  succ.push_back(successor);
  predecessors_[static_cast<std::size_t>(successor)].push_back(predecessor);
  in_degree_[static_cast<std::size_t>(successor)]++;
}

const Task& TaskGraph::task(TaskId id) const {
  return tasks_.at(static_cast<std::size_t>(id));
}

Task& TaskGraph::mutable_task(TaskId id) { return tasks_.at(static_cast<std::size_t>(id)); }

const std::vector<TaskId>& TaskGraph::successors(TaskId id) const {
  return successors_.at(static_cast<std::size_t>(id));
}

const std::vector<TaskId>& TaskGraph::predecessors(TaskId id) const {
  return predecessors_.at(static_cast<std::size_t>(id));
}

int TaskGraph::in_degree(TaskId id) const {
  return in_degree_.at(static_cast<std::size_t>(id));
}

int TaskGraph::num_resources() const {
  int max_id = -1;
  for (const Task& t : tasks_) max_id = std::max(max_id, t.resource);
  return max_id + 1;
}

int TaskGraph::num_pools() const {
  int max_id = -1;
  for (const Task& t : tasks_) max_id = std::max(max_id, t.pool);
  return max_id + 1;
}

}  // namespace dapple::sim
